package harness

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/stream"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Title: "Accuracy of each algorithm against the four data sets (streaming windows)",
		Ref:   "Fig 6",
		Run:   func(o Options) ([]Table, error) { return runFig6(o, false) },
	})
	register(Experiment{
		ID:    "late",
		Title: "Accuracy with late-arriving data dropped (exponential network delay)",
		Ref:   "Sec 4.6",
		Run:   func(o Options) ([]Table, error) { return runFig6(o, true) },
	})
	register(Experiment{
		ID:    "fig7",
		Title: "Accuracy of the 0.98 quantile as a function of kurtosis",
		Ref:   "Fig 7",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Adaptability: accuracy under a mid-stream distribution switch",
		Ref:   "Fig 8 / Sec 4.5.7",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "winsize",
		Title: "Sensitivity of accuracy to window size (5s/10s/20s)",
		Ref:   "Sec 4.7",
		Run:   runWinsize,
	})
}

// accAgg accumulates per-run group errors for one algorithm.
type accAgg struct {
	mid, upper, p99 stats.Summary
}

// streamAccuracy runs the study's Flink-style accuracy experiment for one
// data set: Rate events/s into tumbling windows, the first window
// discarded, group errors averaged over the remaining windows, repeated
// over runs. delayMean > 0 enables the late-data configuration.
func streamAccuracy(opts Options, dataset string, delayMean time.Duration) (map[string]*accAgg, *stats.Summary, error) {
	return streamAccuracyPartitioned(opts, dataset, delayMean, 4)
}

// streamAccuracyPartitioned is streamAccuracy with an explicit partition
// count (the ablation-partitions experiment varies it; everything else
// uses the default of 4).
func streamAccuracyPartitioned(opts Options, dataset string, delayMean time.Duration, partitions int) (map[string]*accAgg, *stats.Summary, error) {
	windowDur := time.Duration(opts.WindowSeconds * opts.Scale * float64(time.Second))
	if windowDur < 100*time.Millisecond {
		windowDur = 100 * time.Millisecond
	}
	var slideDur time.Duration
	effLambda := 0.0
	if opts.SlideSeconds > 0 {
		// Preserve the window:slide ratio under Scale (and the 100 ms
		// clamp above) so the pane geometry is scale-invariant.
		slideDur = time.Duration(float64(windowDur) * opts.SlideSeconds / opts.WindowSeconds)
		if opts.DecayLambda > 0 {
			// Rescale λ so exp(-λ·age) across the scaled window matches
			// the requested profile across the paper-scale window.
			effLambda = opts.DecayLambda * opts.WindowSeconds * float64(time.Second) / float64(windowDur)
		}
	}
	runs := opts.scaledRuns()
	agg := make(map[string]*accAgg, 5)
	for _, alg := range core.AlgorithmNames() {
		agg[alg] = &accAgg{}
	}
	// Pre-derive every run's seeds so the result is identical at any
	// parallelism level.
	type runSeeds struct{ builder, source, delay uint64 }
	seedState := opts.Seed ^ hashString(dataset)
	seeds := make([]runSeeds, runs)
	for i := range seeds {
		seeds[i] = runSeeds{
			builder: datagen.SplitMix64(&seedState),
			source:  datagen.SplitMix64(&seedState),
			delay:   datagen.SplitMix64(&seedState),
		}
	}
	type runResult struct {
		perAlg map[string]*accAgg
		loss   float64
		err    error
	}
	results := make([]runResult, runs)
	oneRun := func(run int) runResult {
		builders, err := core.BuildersForDataset(dataset, seeds[run].builder)
		if err != nil {
			return runResult{err: err}
		}
		src, err := datagen.NewDataset(dataset, seeds[run].source)
		if err != nil {
			return runResult{err: err}
		}
		var delay stream.DelayModel = stream.ZeroDelay{}
		if delayMean > 0 {
			// Keep the dropped-share semantics at reduced scale by
			// shrinking the delay with the window.
			mean := time.Duration(float64(delayMean) * opts.Scale)
			if mean < time.Millisecond {
				mean = time.Millisecond
			}
			delay = stream.NewExponentialDelay(mean, seeds[run].delay)
		}
		cfg := stream.Config{
			WindowSize:    windowDur,
			Slide:         slideDur,
			DecayLambda:   effLambda,
			Rate:          opts.Rate,
			NumWindows:    opts.Windows + 1, // first window discarded
			Partitions:    partitions,
			Workers:       opts.StreamWorkers,
			Values:        src,
			Delay:         delay,
			Builder:       newMultiBuilder(core.AlgorithmNames(), builders),
			CollectValues: true,
			Metrics:       opts.engineMetrics(),
			MemoryBudget:  opts.MemoryBudget,
		}
		if opts.CheckpointDir != "" {
			// Fault-tolerant mode: per-run store subdirectory, plus the
			// source/delay factories recovery needs to re-derive the
			// stream from its seeds after a crash.
			store, err := checkpoint.NewDirStore(filepath.Join(
				opts.CheckpointDir, fmt.Sprintf("%s-run%03d", dataset, run)))
			if err != nil {
				return runResult{err: err}
			}
			cfg.CheckpointStore = store
			cfg.CheckpointEvery = opts.CheckpointEvery
			cfg.Faults = opts.Faults
			srcSeed := seeds[run].source
			cfg.NewValues = func() datagen.Source {
				s, err := datagen.NewDataset(dataset, srcSeed)
				if err != nil {
					return nil // NewDataset already succeeded above with the same args
				}
				return s
			}
			delaySeed := seeds[run].delay
			cfg.NewDelay = func() stream.DelayModel {
				if delayMean <= 0 {
					return stream.ZeroDelay{}
				}
				mean := time.Duration(float64(delayMean) * opts.Scale)
				if mean < time.Millisecond {
					mean = time.Millisecond
				}
				return stream.NewExponentialDelay(mean, delaySeed)
			}
		}
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			return runResult{err: err}
		}
		// One evaluation slot per window (slot 0 is the discarded warm-up
		// window). Both the inline path and the worker pool fill slots by
		// window index, and the fold below reads them in window order, so
		// accuracy output is bit-identical at any EvalWorkers value.
		type windowEval struct {
			perAlg map[string]core.WindowAccuracy
			err    error
		}
		evals := make([]windowEval, opts.Windows+1)
		evalOne := func(r stream.WindowResult) windowEval {
			if len(r.Values) == 0 {
				return windowEval{err: fmt.Errorf("harness: empty window %d on %s", r.Index, dataset)}
			}
			var exact core.QuantileOracle
			if effLambda > 0 {
				// Decayed windows are judged against the weighted exact
				// distribution the engine's pane down-weighting targets.
				exact = decayedOracle(r, effLambda)
			} else {
				exact = stats.NewQuantileSet(r.Values, core.AllQuantiles())
			}
			multi := r.Sketch.(*multiSketch)
			perWin := make(map[string]core.WindowAccuracy, 5)
			for _, alg := range core.AlgorithmNames() {
				wa, err := core.EvaluateAgainst(multi.child(alg), exact)
				if err != nil {
					return windowEval{err: fmt.Errorf("harness: %s window %d: %w", alg, r.Index, err)}
				}
				perWin[alg] = wa
			}
			return windowEval{perAlg: perWin}
		}
		var st stream.Stats
		if opts.CheckpointDir != "" {
			// RunRecovering collects windows itself (re-fired windows after
			// a recovery overwrite their bit-identical first emission), so
			// evaluation happens after the run completes.
			winResults, stats, rerr := stream.RunRecovering(cfg)
			if rerr != nil {
				return runResult{err: rerr}
			}
			st = stats
			for _, r := range winResults {
				if r.Index == 0 {
					continue
				}
				evals[r.Index] = evalOne(r)
			}
		} else if evalWorkers := opts.evalWorkers(); evalWorkers <= 1 {
			st, err = eng.Run(func(r stream.WindowResult) {
				if r.Index == 0 {
					return
				}
				evals[r.Index] = evalOne(r)
			})
		} else {
			// The engine fires windows in index order and hands over each
			// window's freshly-built Values slice and sketch, never touching
			// them again, so evaluation can proceed concurrently with the
			// stream replay of later windows.
			jobs := make(chan stream.WindowResult, evalWorkers)
			var wg sync.WaitGroup
			for w := 0; w < evalWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range jobs {
						evals[r.Index] = evalOne(r)
					}
				}()
			}
			st, err = eng.Run(func(r stream.WindowResult) {
				if r.Index == 0 {
					return
				}
				jobs <- r
			})
			close(jobs)
			wg.Wait()
		}
		if err != nil {
			return runResult{err: err}
		}
		perAlg := make(map[string]*accAgg, 5)
		for _, alg := range core.AlgorithmNames() {
			perAlg[alg] = &accAgg{}
		}
		for idx := 1; idx <= opts.Windows; idx++ {
			we := evals[idx]
			if we.err != nil {
				return runResult{err: we.err}
			}
			for _, alg := range core.AlgorithmNames() {
				wa := we.perAlg[alg]
				perAlg[alg].mid.Observe(wa.Mid)
				perAlg[alg].upper.Observe(wa.Upper)
				perAlg[alg].p99.Observe(wa.P99)
			}
		}
		return runResult{perAlg: perAlg, loss: st.LossRate()}
	}

	workers := opts.parallelism()
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		for run := 0; run < runs; run++ {
			results[run] = oneRun(run)
			opts.logf("%s run %d/%d done (loss %.2f%%)", dataset, run+1, runs, 100*results[run].loss)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for run := range next {
					results[run] = oneRun(run)
				}
			}()
		}
		for run := 0; run < runs; run++ {
			next <- run
		}
		close(next)
		wg.Wait()
		opts.logf("%s: %d runs done (%d workers)", dataset, runs, workers)
	}

	var loss stats.Summary
	for run := 0; run < runs; run++ {
		r := results[run]
		if r.err != nil {
			return nil, nil, r.err
		}
		for _, alg := range core.AlgorithmNames() {
			agg[alg].mid.Observe(r.perAlg[alg].mid.Mean())
			agg[alg].upper.Observe(r.perAlg[alg].upper.Mean())
			agg[alg].p99.Observe(r.perAlg[alg].p99.Mean())
		}
		loss.Observe(r.loss)
	}
	return agg, &loss, nil
}

// decayedOracle builds the weighted exact ground truth of one decayed
// sliding window: every value of pane segment i (segments delimited by
// r.PaneCounts, oldest first, values concatenated in the same order)
// carries weight exp(-λ·age_i), the exact weight the engine applied to
// that pane's sketch at window assembly.
func decayedOracle(r stream.WindowResult, lambda float64) *stats.WeightedQuantiles {
	n := len(r.PaneCounts)
	paneLen := (r.End - r.Start) / time.Duration(n)
	weights := make([]float64, 0, len(r.Values))
	for i, c := range r.PaneCounts {
		w := math.Exp(-lambda * (time.Duration(n-1-i) * paneLen).Seconds())
		for k := 0; k < c; k++ {
			weights = append(weights, w)
		}
	}
	return stats.NewWeightedQuantiles(r.Values, weights)
}

// RunAccuracy runs the Fig 6-style streaming accuracy evaluation for one
// data set and renders its table. Exported for benchmarks and tools that
// need a single-dataset accuracy pass without the full fig6 sweep.
func RunAccuracy(opts Options, dataset string) (Table, error) {
	agg, _, err := streamAccuracy(opts, dataset, 0)
	if err != nil {
		return Table{}, err
	}
	tbl := Table{
		Title:   fmt.Sprintf("accuracy: mean relative error on %s", dataset),
		Headers: []string{"sketch", "mid (.05-.9)", "upper (.95,.98)", "p99"},
	}
	for _, alg := range core.AlgorithmNames() {
		a := agg[alg]
		tbl.Rows = append(tbl.Rows, []string{
			alg,
			fmtErrCI(a.mid.Mean(), a.mid.CI95()),
			fmtErrCI(a.upper.Mean(), a.upper.CI95()),
			fmtErrCI(a.p99.Mean(), a.p99.CI95()),
		})
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return tbl, nil
}

// runFig6 reproduces Fig 6 (late=false) and the Sec 4.6 late-data variant
// (late=true): one accuracy table per data set.
func runFig6(opts Options, late bool) ([]Table, error) {
	var delayMean time.Duration
	if late {
		delayMean = 150 * time.Millisecond
	}
	panels := map[string]string{
		datagen.DatasetPareto:  "Fig 6a",
		datagen.DatasetUniform: "Fig 6b",
		datagen.DatasetNYT:     "Fig 6c",
		datagen.DatasetPower:   "Fig 6d",
	}
	var tables []Table
	for _, ds := range datagen.DatasetNames() {
		agg, loss, err := streamAccuracy(opts, ds, delayMean)
		if err != nil {
			return nil, err
		}
		title := fmt.Sprintf("%s: mean relative error on %s", panels[ds], ds)
		if late {
			title = fmt.Sprintf("Sec 4.6 (late data): mean relative error on %s (loss %.2f%%)", ds, 100*loss.Mean())
		}
		tbl := Table{
			Title:   title,
			Headers: []string{"sketch", "mid (.05-.9)", "upper (.95,.98)", "p99"},
		}
		for _, alg := range core.AlgorithmNames() {
			a := agg[alg]
			tbl.Rows = append(tbl.Rows, []string{
				alg,
				fmtErrCI(a.mid.Mean(), a.mid.CI95()),
				fmtErrCI(a.upper.Mean(), a.upper.CI95()),
				fmtErrCI(a.p99.Mean(), a.p99.CI95()),
			})
		}
		tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
		tables = append(tables, tbl)
	}
	return tables, nil
}

// runFig7 reproduces Fig 7: relative error of the 0.98 quantile across
// data sets of increasing kurtosis.
func runFig7(opts Options) ([]Table, error) {
	n := opts.scaled(1_000_000)
	runs := opts.scaledRuns()
	sweepSeed := opts.Seed ^ 0x717171
	points := datagen.NewKurtosisSweep(sweepSeed, minInt(n, 200_000))
	tbl := Table{
		Title:   "Fig 7: relative error of the 0.98 quantile vs kurtosis",
		Headers: append([]string{"dataset", "kurtosis"}, core.AlgorithmNames()...),
		Notes: []string{
			"paper: DDS/UDDS flat across kurtosis; KLL degrades with skew; REQ robust; Moments fails on real-world shapes",
		},
	}
	seedState := sweepSeed ^ 0x9090
	for _, p := range points {
		aggs := make(map[string]*stats.Summary, 5)
		for _, alg := range core.AlgorithmNames() {
			aggs[alg] = &stats.Summary{}
		}
		var kurt float64
		for run := 0; run < runs; run++ {
			// Fresh sources per run: re-derive the sweep to keep sources
			// independent across runs.
			runPts := datagen.NewKurtosisSweep(sweepSeed^datagen.SplitMix64(&seedState), 1000)
			var src datagen.Source
			for _, rp := range runPts {
				if rp.Name == p.Name {
					src = rp.Src
					break
				}
			}
			if src == nil {
				return nil, fmt.Errorf("harness: sweep point %q vanished", p.Name)
			}
			data := datagen.Take(src, n)
			exact := stats.NewExactQuantiles(data)
			kurt = stats.Kurtosis(data)
			logTr := p.Name == datagen.DatasetPareto || p.Name == datagen.DatasetPower
			for _, alg := range core.AlgorithmNames() {
				b, err := core.NewBuilder(alg, core.BuilderOptions{
					LogTransformMoments: logTr,
					Seed:                datagen.SplitMix64(&seedState),
				})
				if err != nil {
					return nil, err
				}
				sk := b()
				sketch.InsertAll(sk, data)
				est, err := sk.Quantile(0.98)
				if err != nil {
					return nil, fmt.Errorf("harness: fig7 %s on %s: %w", alg, p.Name, err)
				}
				aggs[alg].Observe(stats.RelativeError(exact.Quantile(0.98), est))
			}
		}
		row := []string{p.Name, fmt.Sprintf("%.1f", kurt)}
		for _, alg := range core.AlgorithmNames() {
			row = append(row, fmtErr(aggs[alg].Mean()))
		}
		tbl.Rows = append(tbl.Rows, row)
		opts.logf("fig7: %s done (kurtosis %.1f)", p.Name, kurt)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// runFig8 reproduces the adaptability experiment: (scaled) 1M points of
// Binomial(30, 0.4) followed by 1M of U(30, 100); per-quantile error.
func runFig8(opts Options) ([]Table, error) {
	half := opts.scaled(1_000_000)
	runs := opts.scaledRuns()
	qs := core.AllQuantiles()
	aggs := make(map[string][]stats.Summary, 5)
	for _, alg := range core.AlgorithmNames() {
		aggs[alg] = make([]stats.Summary, len(qs))
	}
	seedState := opts.Seed ^ 0x8a8a8a
	for run := 0; run < runs; run++ {
		src := datagen.NewAdaptabilityWorkload(datagen.SplitMix64(&seedState), half)
		data := datagen.Take(src, 2*half)
		exact := stats.NewExactQuantiles(data)
		for _, alg := range core.AlgorithmNames() {
			b, err := core.NewBuilder(alg, core.BuilderOptions{Seed: datagen.SplitMix64(&seedState)})
			if err != nil {
				return nil, err
			}
			sk := b()
			sketch.InsertAll(sk, data)
			ests, err := sketch.Quantiles(sk, qs)
			if err != nil {
				return nil, fmt.Errorf("harness: fig8 %s: %w", alg, err)
			}
			for i, q := range qs {
				aggs[alg][i].Observe(stats.RelativeError(exact.Quantile(q), ests[i]))
			}
		}
		opts.logf("fig8: run %d/%d done", run+1, runs)
	}
	tbl := Table{
		Title:   "Fig 8b: adaptability — relative error per quantile (binomial→uniform switch at the median)",
		Headers: append([]string{"quantile"}, core.AlgorithmNames()...),
		Notes: []string{
			"paper: error jumps at q=0.5 (the switch point) for KLL/REQ/Moments; DDS/UDDS stable",
		},
	}
	for i, q := range qs {
		row := []string{fmt.Sprintf("%.2f", q)}
		for _, alg := range core.AlgorithmNames() {
			row = append(row, fmtErr(aggs[alg][i].Mean()))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// runWinsize reproduces the Sec 4.7 sensitivity analysis: Fig 6 accuracy
// at window sizes 5, 10 and 20 seconds, reporting the overall mean
// relative error (all 8 quantiles) per algorithm and window size.
func runWinsize(opts Options) ([]Table, error) {
	var tables []Table
	for _, ds := range datagen.DatasetNames() {
		tbl := Table{
			Title:   fmt.Sprintf("Sec 4.7: overall mean relative error on %s by window size", ds),
			Headers: []string{"sketch", "5 s", "10 s", "20 s"},
			Notes: []string{
				"paper: Moments improves with window size on real-world data; KLL/REQ degrade slightly; DDS/UDDS flat",
			},
		}
		rows := make(map[string][]string, 5)
		for _, alg := range core.AlgorithmNames() {
			rows[alg] = []string{alg}
		}
		for _, ws := range []float64{5, 10, 20} {
			o := opts
			o.WindowSeconds = ws
			if opts.SlideSeconds > 0 {
				// Preserve the requested slide:window ratio across the
				// sweep — a fixed absolute slide would degenerate to
				// tumbling at the smallest window (and reject decay).
				o.SlideSeconds = opts.SlideSeconds * ws / opts.WindowSeconds
			}
			agg, _, err := streamAccuracy(o, ds, 0)
			if err != nil {
				return nil, err
			}
			for _, alg := range core.AlgorithmNames() {
				a := agg[alg]
				nMid, nUp := float64(len(core.MidQuantiles)), float64(len(core.UpperQuantiles))
				overall := (a.mid.Mean()*nMid + a.upper.Mean()*nUp + a.p99.Mean()) / (nMid + nUp + 1)
				rows[alg] = append(rows[alg], fmtErr(overall))
			}
			opts.logf("winsize: %s %vs done", ds, ws)
		}
		for _, alg := range core.AlgorithmNames() {
			tbl.Rows = append(tbl.Rows, rows[alg])
		}
		tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
		tables = append(tables, tbl)
	}
	return tables, nil
}

// scaleNote documents sub-paper-scale runs on every produced table.
func scaleNote(opts Options) []string {
	if opts.Scale == 1.0 {
		return nil
	}
	return []string{fmt.Sprintf("scaled run (scale=%g): window/runs reduced proportionally; use -scale 1 for paper scale", opts.Scale)}
}

// hashString gives a stable seed perturbation per dataset name.
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
