package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/kllpm"
	"repro/internal/moments"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/uddsketch"
)

func init() {
	register(Experiment{
		ID:    "ablation-mapping",
		Title: "DDSketch index-mapping ablation: exact log vs cubic vs linear interpolation",
		Ref:   "Sec 4.4.1 (DDSketch implementation design)",
		Run:   runMappingAblation,
	})
	register(Experiment{
		ID:    "ablation-grid",
		Title: "Moments Sketch solver-grid ablation: accuracy vs query time",
		Ref:   "Sec 4.5.5",
		Run:   runGridAblation,
	})
	register(Experiment{
		ID:    "ablation-uddstore",
		Title: "UDDSketch store ablation: the paper's map store vs a dense array store",
		Ref:   "Sec 4.4.1/4.4.3",
		Run:   runUDDStoreAblation,
	})
	register(Experiment{
		ID:    "ablation-logmoments",
		Title: "Moments Sketch: study's standard-only variant vs the original joint log-moments design",
		Ref:   "Sec 4.3 (implementation footnote)",
		Run:   runLogMomentsAblation,
	})
	register(Experiment{
		ID:    "ablation-partitions",
		Title: "Window partitioning: accuracy invariance under P-way sketch merging",
		Ref:   "Sec 2.4",
		Run:   runPartitionsAblation,
	})
	register(Experiment{
		ID:    "ablation-deletion",
		Title: "KLL± turnstile extension: deletion support cost vs plain KLL",
		Ref:   "Sec 3.1 / [40]",
		Run:   runDeletionAblation,
	})
}

// runMappingAblation quantifies the index-mapping trade-off behind
// DDSketch's insert speed (the paper attributes DDSketch's lead to cheap
// bucket derivation, Sec 4.4.1): interpolated mappings avoid the log()
// call per insert at the cost of slightly more buckets.
func runMappingAblation(opts Options) ([]Table, error) {
	n := opts.scaled(10_000_000)
	buf := presample(minInt(n, 1_000_000), opts.Seed^0x3a3a)
	tbl := Table{
		Title:   fmt.Sprintf("DDSketch mapping/store ablation (α=0.01, %d Pareto inserts)", n),
		Headers: []string{"mapping", "store", "insert/op", "buckets", "memory KB", "p99 rel err"},
		Notes: []string{
			"cubic ≈ exact bucket count without the per-insert log(); linear trades ~44% more buckets for the cheapest indexing",
			"the buffered-paginated store pays only for touched bucket pages; the dense store pays for the whole index span",
		},
	}
	dense := func() ddsketch.Store { return ddsketch.NewDenseStore() }
	paginated := func() ddsketch.Store { return ddsketch.NewBufferedPaginatedStore() }
	type variant struct {
		name  string
		make  func() (ddsketch.IndexMapping, error)
		store string
		newSt func() ddsketch.Store
	}
	variants := []variant{
		{"logarithmic", func() (ddsketch.IndexMapping, error) { return ddsketch.NewLogarithmic(0.01) }, "dense", dense},
		{"cubic", func() (ddsketch.IndexMapping, error) { return ddsketch.NewCubicMapping(0.01) }, "dense", dense},
		{"linear", func() (ddsketch.IndexMapping, error) { return ddsketch.NewLinearMapping(0.01) }, "dense", dense},
		{"cubic", func() (ddsketch.IndexMapping, error) { return ddsketch.NewCubicMapping(0.01) }, "paginated", paginated},
	}
	data := make([]float64, minInt(n, 1_000_000))
	copy(data, buf[:len(data)])
	exact := stats.NewExactQuantiles(data)
	for _, v := range variants {
		m, err := v.make()
		if err != nil {
			return nil, err
		}
		sk, err := ddsketch.NewWithMapping(m, v.newSt)
		if err != nil {
			return nil, err
		}
		d := measure(func() {
			for i := 0; i < n; i++ {
				sk.Insert(buf[i%len(buf)])
			}
		})
		est, err := sk.Quantile(0.99)
		if err != nil {
			return nil, err
		}
		// Ground truth covers one buffer cycle; with n a multiple of the
		// buffer the distribution is identical.
		re := stats.RelativeError(exact.Quantile(0.99), est)
		tbl.Rows = append(tbl.Rows, []string{
			v.name,
			v.store,
			fmtDur(d / time.Duration(n)),
			fmt.Sprint(sk.NonEmptyBuckets()),
			fmt.Sprintf("%.2f", float64(sk.MemoryBytes())/1024),
			fmtErr(re),
		})
		opts.logf("ablation-mapping: %s/%s done", v.name, v.store)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// runGridAblation sweeps the Moments Sketch quadrature grid: "accuracy
// can be increased at the cost of increased query time by increasing the
// grid size parameter for the moments solver" (Sec 4.5.5).
func runGridAblation(opts Options) ([]Table, error) {
	n := opts.scaled(1_000_000)
	src := datagen.NewSyntheticPower(opts.Seed ^ 0x66dd)
	data := datagen.Take(src, n)
	exact := stats.NewExactQuantiles(data)
	tbl := Table{
		Title:   fmt.Sprintf("Moments Sketch grid-size ablation (Power stand-in, %d points, 12 moments, log transform)", n),
		Headers: []string{"grid", "mid err", "upper err", "p99 err", "8-quantile query"},
	}
	for _, grid := range []int{128, 512, 1024, 4096, 16384} {
		sk := moments.NewWithTransform(12, moments.TransformLog)
		sk.SetGridSize(grid)
		for _, x := range data {
			sk.Insert(x)
		}
		var mid, upper, p99 float64
		var qd time.Duration
		const reps = 5
		for r := 0; r < reps; r++ {
			sk.Insert(data[r]) // invalidate the solve cache
			var err error
			qd += measure(func() {
				var wa struct{ mid, upper, p99 float64 }
				wa.mid, wa.upper, wa.p99, err = momentsGroups(sk, exact)
				mid, upper, p99 = wa.mid, wa.upper, wa.p99
			})
			if err != nil {
				return nil, fmt.Errorf("grid %d: %w", grid, err)
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(grid),
			fmtErr(mid), fmtErr(upper), fmtErr(p99),
			fmtDur(qd / reps),
		})
		opts.logf("ablation-grid: %d done", grid)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// momentsGroups evaluates the study's quantile groups on one sketch.
func momentsGroups(sk *moments.Sketch, exact *stats.ExactQuantiles) (mid, upper, p99 float64, err error) {
	sum := func(qs []float64) (float64, error) {
		ests, err := sk.QuantileAll(qs)
		if err != nil {
			return 0, err
		}
		var s float64
		for i, q := range qs {
			s += stats.RelativeError(exact.Quantile(q), ests[i])
		}
		return s / float64(len(qs)), nil
	}
	if mid, err = sum([]float64{0.05, 0.25, 0.5, 0.75, 0.9}); err != nil {
		return
	}
	if upper, err = sum([]float64{0.95, 0.98}); err != nil {
		return
	}
	p99, err = sum([]float64{0.99})
	return
}

// runDeletionAblation measures what the turnstile extension costs: KLL±
// doubles state and pays rank-correction overhead — the reason the study
// restricts itself to cash-register sketches (Sec 5.1).
func runDeletionAblation(opts Options) ([]Table, error) {
	n := opts.scaled(1_000_000)
	buf := presample(minInt(n, 1_000_000), opts.Seed^0x0dd0)
	tbl := Table{
		Title:   fmt.Sprintf("KLL vs KLL± on %d operations (30%% deletions for KLL±)", n),
		Headers: []string{"sketch", "op/op", "memory KB", "median rank err"},
		Notes: []string{
			"turnstile support doubles the footprint and degrades the guarantee to ε·(ops), cf. Luo et al.'s cash-register vs turnstile analysis (Sec 5.1)",
		},
	}
	// Plain KLL: n inserts.
	{
		sk := kll.NewWithSeed(kll.DefaultK, opts.Seed)
		d := measure(func() {
			for i := 0; i < n; i++ {
				sk.Insert(buf[i%len(buf)])
			}
		})
		data := make([]float64, n)
		for i := range data {
			data[i] = buf[i%len(buf)]
		}
		exact := stats.NewExactQuantiles(data)
		est, err := sk.Quantile(0.5)
		if err != nil {
			return nil, err
		}
		rankErr := exact.NormalizedRank(est) - 0.5
		if rankErr < 0 {
			rankErr = -rankErr
		}
		tbl.Rows = append(tbl.Rows, []string{
			"kll",
			fmtDur(d / time.Duration(n)),
			fmt.Sprintf("%.2f", float64(sk.MemoryBytes())/1024),
			fmtErr(rankErr),
		})
	}
	// KLL±: same operation count with 30% deletions of previously
	// inserted values (sliding churn).
	{
		sk := kllpm.NewWithSeed(kll.DefaultK, opts.Seed)
		live := make([]float64, 0, n)
		d := measure(func() {
			for i := 0; i < n; i++ {
				if i%10 < 3 && len(live) > 1000 {
					// delete the oldest live value
					sk.Delete(live[0])
					live = live[1:]
				} else {
					x := buf[i%len(buf)]
					sk.Insert(x)
					live = append(live, x)
				}
			}
		})
		exact := stats.NewExactQuantiles(live)
		est, err := sk.Quantile(0.5)
		if err != nil {
			return nil, err
		}
		rankErr := exact.NormalizedRank(est) - 0.5
		if rankErr < 0 {
			rankErr = -rankErr
		}
		tbl.Rows = append(tbl.Rows, []string{
			"kllpm",
			fmtDur(d / time.Duration(n)),
			fmt.Sprintf("%.2f", float64(sk.MemoryBytes())/1024),
			fmtErr(rankErr),
		})
	}
	opts.logf("ablation-deletion: done")
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// runPartitionsAblation verifies the mergeability property the study
// motivates in Sec 2.4 end to end: splitting each window across more
// partition-local sketches (merged at fire time) must not change the
// error profile of any algorithm.
func runPartitionsAblation(opts Options) ([]Table, error) {
	tbl := Table{
		Title:   "Partitioned-window ablation: Pareto accuracy vs partition count",
		Headers: []string{"partitions", "req p99", "kll p99", "uddsketch p99", "ddsketch p99", "moments p99"},
		Notes: []string{
			"each window's events are sketched in P partition-local sketches merged at fire time (Sec 2.4); guarantees must be merge-invariant",
		},
	}
	for _, p := range []int{1, 4, 16} {
		agg, _, err := streamAccuracyPartitioned(opts, datagen.DatasetPareto, 0, p)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(p)}
		for _, alg := range []string{"req", "kll", "uddsketch", "ddsketch", "moments"} {
			row = append(row, fmtErr(agg[alg].p99.Mean()))
		}
		tbl.Rows = append(tbl.Rows, row)
		opts.logf("ablation-partitions: P=%d done", p)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// runLogMomentsAblation compares the study's stripped Moments Sketch
// (standard moments only, manual per-data-set transform) against the
// original full design (joint standard+log moments) on all four data
// sets — quantifying the paper's Sec 4.3 footnote that its
// implementation "keeps only standard moments and avoids maintaining
// log moments".
func runLogMomentsAblation(opts Options) ([]Table, error) {
	n := opts.scaled(1_000_000)
	tbl := Table{
		Title:   fmt.Sprintf("Moments variants: study's standard-only (+transform) vs full joint log moments (%d points)", n),
		Headers: []string{"dataset", "variant", "mid err", "upper err", "p99 err", "memory B"},
		Notes: []string{
			"'standard+transform' is the study's configuration (log transform on pareto/power); 'full' is Gan et al.'s original joint design",
		},
	}
	seedState := opts.Seed ^ 0x109109
	for _, ds := range datagen.DatasetNames() {
		src, err := datagen.NewDataset(ds, datagen.SplitMix64(&seedState))
		if err != nil {
			return nil, err
		}
		data := datagen.Take(src, n)
		exact := stats.NewExactQuantiles(data)

		tr := moments.TransformNone
		if datagen.NeedsLogTransform(ds) {
			tr = moments.TransformLog
		}
		std := moments.NewWithTransform(12, tr)
		full := moments.NewFull(12)
		for _, x := range data {
			std.Insert(x)
			full.Insert(x)
		}
		for _, v := range []struct {
			name string
			sk   sketch.Sketch
		}{{"standard+transform", std}, {"full", full}} {
			wa, err := core.EvaluateAgainst(v.sk, exact)
			row := []string{ds, v.name}
			if err != nil {
				row = append(row, "solve-failed", "solve-failed", "solve-failed")
			} else {
				row = append(row, fmtErr(wa.Mid), fmtErr(wa.Upper), fmtErr(wa.P99))
			}
			row = append(row, fmt.Sprint(v.sk.MemoryBytes()))
			tbl.Rows = append(tbl.Rows, row)
		}
		opts.logf("ablation-logmoments: %s done", ds)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}

// runUDDStoreAblation tests the paper's causal claim head-on: UDDSketch's
// slow inserts and merges are attributed to its "unoptimized map-based
// implementation" (Sec 4.4.1/4.4.3). One sketch type, two ddsketch
// stores (SparseStore vs DenseStore).
func runUDDStoreAblation(opts Options) ([]Table, error) {
	n := opts.scaled(10_000_000)
	buf := presample(minInt(n, 1_000_000), opts.Seed^0x5705)
	tbl := Table{
		Title:   fmt.Sprintf("UDDSketch store ablation: map vs dense array (%d Pareto inserts)", n),
		Headers: []string{"store", "insert/op", "merge/op", "8-quantile query", "memory KB"},
		Notes: []string{
			"paper attributes UDDSketch's slow insert/merge to the map store; one sketch type whose only difference is the ddsketch store isolates that choice",
		},
	}
	type variant struct {
		name string
		mk   func() sketch.Sketch
	}
	variants := []variant{
		{"map (paper's)", func() sketch.Sketch {
			s, err := uddsketch.NewWithBudget(core.UDDSketchAlpha, core.UDDSketchMaxBuckets, core.UDDSketchNumCollapses)
			if err != nil {
				panic(err)
			}
			return s
		}},
		{"dense array", func() sketch.Sketch {
			s, err := uddsketch.NewArrayWithBudget(core.UDDSketchAlpha, core.UDDSketchMaxBuckets, core.UDDSketchNumCollapses)
			if err != nil {
				panic(err)
			}
			return s
		}},
	}
	qs := core.AllQuantiles()
	for _, v := range variants {
		sk := v.mk()
		ins := measure(func() {
			for i := 0; i < n; i++ {
				sk.Insert(buf[i%len(buf)])
			}
		})
		// Merge: fold 64 copies of a 100k-point sketch.
		part := v.mk()
		for i := 0; i < minInt(n, 100_000); i++ {
			part.Insert(buf[i%len(buf)])
		}
		acc := v.mk()
		const merges = 64
		var mErr error
		md := measure(func() {
			for i := 0; i < merges; i++ {
				if err := acc.Merge(part); err != nil && mErr == nil {
					mErr = err
				}
			}
		})
		if mErr != nil {
			return nil, mErr
		}
		var qd time.Duration
		const reps = 20
		for r := 0; r < reps; r++ {
			qd += measure(func() {
				if _, err := sketch.Quantiles(sk, qs); err != nil && mErr == nil {
					mErr = err
				}
			})
		}
		if mErr != nil {
			return nil, mErr
		}
		tbl.Rows = append(tbl.Rows, []string{
			v.name,
			fmtDur(ins / time.Duration(n)),
			fmtDur(md / merges),
			fmtDur(qd / reps),
			fmt.Sprintf("%.2f", float64(sk.MemoryBytes())/1024),
		})
		opts.logf("ablation-uddstore: %s done", v.name)
	}
	tbl.Notes = append(tbl.Notes, scaleNote(opts)...)
	return []Table{tbl}, nil
}
