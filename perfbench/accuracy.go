package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/harness"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/stream"
)

// accuracySpec is one configuration of the paper's streaming accuracy
// experiment (Fig 6, with the Sec 4.6 late-data and the decayed sliding
// variants): the four data sets, four partitions, the five study
// sketches side by side on the same events, exact ground truth and
// error evaluation on every measured window.
type accuracySpec struct {
	scale        float64 // harness.Options.Scale
	windows      int     // measured windows per run
	late         bool    // exponential network delay, late events dropped
	slideSeconds float64 // sliding windows (before scaling); 0 = tumbling
	decayLambda  float64 // exponential decay rate (before scaling)
}

// options are the harness options the spec runs with: serial, at the
// benchmark's seed.
func (a accuracySpec) options(seed uint64) harness.Options {
	o := harness.DefaultOptions(a.scale)
	o.Seed = seed
	o.Windows = a.windows
	o.SlideSeconds = a.slideSeconds
	o.DecayLambda = a.decayLambda
	o.Parallel, o.StreamWorkers, o.EvalWorkers = 1, 1, 1
	return o
}

// harnessTables runs the spec through internal/harness the way
// quantbench does: -run fig6, -run late, or one sliding accuracy table
// per data set.
func (a accuracySpec) harnessTables(seed uint64) ([]harness.Table, error) {
	opts := a.options(seed)
	if a.slideSeconds > 0 {
		var out []harness.Table
		for _, ds := range datagen.DatasetNames() {
			t, err := harness.RunAccuracy(opts, ds)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
	id := "fig6"
	if a.late {
		id = "late"
	}
	exp, ok := harness.Get(id)
	if !ok {
		return nil, fmt.Errorf("harness has no experiment %q", id)
	}
	return exp.Run(opts)
}

// accuracyResult is one re-driven pass.
type accuracyResult struct {
	cells     [][][]string       // per data set, per sketch: mid, upper, p99 cells
	relErr    map[string]float64 // mean relative error over the 8 quantiles
	generated int64
	stats     stream.Stats // summed over the pass's engine runs
	windows   int          // fired windows, the warm-up windows included
}

// matches reports whether the pass reproduced the harness's tables
// cell for cell.
func (r accuracyResult) matches(tables []harness.Table) error {
	if len(tables) != len(r.cells) {
		return fmt.Errorf("harness printed %d tables, re-drive %d", len(tables), len(r.cells))
	}
	for d, t := range tables {
		if len(t.Rows) != len(r.cells[d]) {
			return fmt.Errorf("table %d: %d rows, re-drive %d", d, len(t.Rows), len(r.cells[d]))
		}
		for i, row := range t.Rows {
			want := append([]string{core.AlgorithmNames()[i]}, r.cells[d][i]...)
			if fmt.Sprint(row) != fmt.Sprint(want) {
				return fmt.Errorf("table %q row %d: harness %v, re-drive %v", t.Title, i, row, want)
			}
		}
	}
	return nil
}

// groupAgg mirrors the harness's per-algorithm accumulation, plus the
// mean over all 8 quantiles the benchmark reports.
type groupAgg struct{ mid, upper, p99, all stats.Summary }

// accuracyPass re-drives the harness's accuracy experiment from the
// layer calls: the same seeds, sources, builders and engine
// configuration, a multiplexer equivalent to the harness's, and the
// same ground truth and evaluation. The benchmark can then stamp each
// window's emit latency, check every window's outputs and, with a
// tracer, time each layer. probe, when set, runs as the first event is
// requested.
func accuracyPass(a accuracySpec, seed uint64, t *tracer, obs *observer, clock func() int64, probe func()) (accuracyResult, error) {
	res := accuracyResult{relErr: make(map[string]float64)}
	opts := a.options(seed)
	windowDur := time.Duration(opts.WindowSeconds * opts.Scale * float64(time.Second))
	if windowDur < 100*time.Millisecond {
		windowDur = 100 * time.Millisecond
	}
	var slideDur time.Duration
	effLambda := 0.0
	if opts.SlideSeconds > 0 {
		slideDur = time.Duration(float64(windowDur) * opts.SlideSeconds / opts.WindowSeconds)
		if opts.DecayLambda > 0 {
			effLambda = opts.DecayLambda * opts.WindowSeconds * float64(time.Second) / float64(windowDur)
		}
	}
	runs := int(float64(opts.Runs)*opts.Scale + 0.5)
	if runs < 2 {
		runs = 2
	}
	qs := core.AllQuantiles()
	algs := core.AlgorithmNames()
	for _, ds := range datagen.DatasetNames() {
		agg := make(map[string]*groupAgg, len(algs))
		for _, alg := range algs {
			agg[alg] = &groupAgg{}
		}
		seedState := opts.Seed ^ fnvString(ds)
		type runSeeds struct{ builder, source, delay uint64 }
		seeds := make([]runSeeds, runs)
		for i := range seeds {
			seeds[i] = runSeeds{
				builder: datagen.SplitMix64(&seedState),
				source:  datagen.SplitMix64(&seedState),
				delay:   datagen.SplitMix64(&seedState),
			}
		}
		for run := 0; run < runs; run++ {
			builders, err := core.BuildersForDataset(ds, seeds[run].builder)
			if err != nil {
				return res, err
			}
			if t != nil {
				for alg, b := range builders {
					builders[alg] = t.wrapBuilder(b)
				}
			}
			src, err := datagen.NewDataset(ds, seeds[run].source)
			if err != nil {
				return res, err
			}
			var delay stream.DelayModel = stream.ZeroDelay{}
			if a.late {
				mean := time.Duration(float64(150*time.Millisecond) * opts.Scale)
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
				NumWindows:    opts.Windows + 1, // the first window is discarded
				Partitions:    4,
				Workers:       1,
				Delay:         delay,
				Builder:       newMultiBuilder(algs, builders),
				CollectValues: true,
			}
			geo := newGeometry(cfg)
			ms, err := geo.source(src, clock, t)
			if err != nil {
				return res, err
			}
			if probe != nil && ds == datagen.DatasetNames()[0] && run == 0 {
				ms.onFirst = probe
			}
			cfg.Values = ms
			eng, err := stream.NewEngine(cfg)
			if err != nil {
				return res, err
			}
			perRun := make(map[string]*groupAgg, len(algs))
			for _, alg := range algs {
				perRun[alg] = &groupAgg{}
			}
			var evalErr error
			emit := func(r stream.WindowResult) {
				if r.Index == 0 || evalErr != nil {
					return // the harness discards the warm-up window unevaluated
				}
				var t0 int64
				if t != nil {
					t0 = t.now()
				}
				if len(r.Values) == 0 {
					evalErr = fmt.Errorf("empty window %d on %s", r.Index, ds)
					return
				}
				var exact *stats.ExactQuantiles
				var oracle core.QuantileOracle
				if effLambda > 0 {
					oracle = decayedOracle(r, effLambda)
				} else {
					var e0 int64
					if t != nil {
						e0 = t.now()
					}
					exact = stats.NewExactQuantiles(r.Values)
					if t != nil {
						t.exact.add(t.now()-e0, int64(len(r.Values)))
					}
					oracle = exact
				}
				multi := r.Sketch.(*multiSketch)
				accs := make([]core.WindowAccuracy, len(algs))
				_, endSeg := geo.window(r.Index)
				last := ms.stamp[endSeg-1]
				for i, alg := range algs {
					var e0 int64
					if t != nil {
						e0 = t.now()
					}
					wa, err := core.EvaluateAgainst(multi.child(alg), oracle)
					if t != nil {
						t.evaluate.add(t.now()-e0, 1)
					}
					if err != nil {
						evalErr = fmt.Errorf("%s window %d: %w", alg, r.Index, err)
						return
					}
					accs[i] = wa
					// Each sketch's answer is one result of the window,
					// emitted once its quantiles are answered.
					obs.latencyMS = append(obs.latencyMS, float64(clock()-last)/1e6)
				}
				for i, alg := range algs {
					wa := accs[i]
					var all float64
					for _, q := range qs {
						all += wa.PerQuantile[q]
					}
					perRun[alg].mid.Observe(wa.Mid)
					perRun[alg].upper.Observe(wa.Upper)
					perRun[alg].p99.Observe(wa.P99)
					perRun[alg].all.Observe(all / float64(len(qs)))
				}
				obs.window(checkMultiWindow(r, multi, qs, exact, effLambda > 0, t, obs))
				if t != nil {
					t.emit.add(t.now()-t0, 1)
				}
			}
			t0 := clock()
			st, err := eng.Run(emit)
			if t != nil {
				t.engineNS.Add(clock() - t0)
				ms.finish()
			}
			if err != nil {
				return res, err
			}
			if evalErr != nil {
				return res, evalErr
			}
			if err := checkStats(st); err != nil {
				obs.fail(err)
			}
			res.generated += st.Generated
			res.stats.Accepted += st.Accepted
			res.stats.DroppedLate += st.DroppedLate
			res.windows += cfg.NumWindows
			for _, alg := range algs {
				agg[alg].mid.Observe(perRun[alg].mid.Mean())
				agg[alg].upper.Observe(perRun[alg].upper.Mean())
				agg[alg].p99.Observe(perRun[alg].p99.Mean())
				agg[alg].all.Observe(perRun[alg].all.Mean())
			}
		}
		var rows [][]string
		for _, alg := range algs {
			g := agg[alg]
			rows = append(rows, []string{cell(&g.mid), cell(&g.upper), cell(&g.p99)})
			res.relErr[alg] += g.all.Mean() / float64(len(datagen.DatasetNames()))
		}
		res.cells = append(res.cells, rows)
	}
	return res, nil
}

// cell renders a mean ± 95% CI the way the harness tables do.
func cell(s *stats.Summary) string { return fmt.Sprintf("%.5f ±%.5f", s.Mean(), s.CI95()) }

// fnvString is the harness's per-data-set seed perturbation.
func fnvString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// decayedOracle is the harness's weighted ground truth for a decayed
// sliding window: pane segment i carries weight exp(-λ·age_i).
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

// checkMultiWindow checks each child sketch of one evaluated window and
// folds its answers into the digest. The answers are read from the
// unwrapped sketch after the latency stamp, so checking costs neither
// the latency nor the traced layers anything.
func checkMultiWindow(r stream.WindowResult, multi *multiSketch, qs []float64, exact *stats.ExactQuantiles, decayed bool, t *tracer, obs *observer) error {
	lo, hi := minMax(r.Values)
	var exactQ []float64
	if exact != nil {
		for _, q := range qs {
			exactQ = append(exactQ, exact.Quantile(q))
		}
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("window %d: %w", r.Index, err)
		}
	}
	for _, alg := range core.AlgorithmNames() {
		sk := unwrap(multi.child(alg))
		est, err := sketch.Quantiles(sk, qs)
		if err != nil {
			keep(fmt.Errorf("%s: %w", alg, err))
			continue
		}
		obs.recordEstimates(r.Index, sk.Count(), est)
		keep(checkEstimates(alg, est, lo, hi))
		keep(checkCount(alg, r, sk.Count(), decayed))
		if exactQ != nil && (alg == core.AlgDD || alg == core.AlgUDD) {
			keep(checkAlpha(alg, est, exactQ, boundOf(sk)))
		}
		if t != nil {
			t.observeWindowSketch(sk)
		}
	}
	return firstErr
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// multiSketch fans every insert and merge out to one child per study
// sketch, iterating the children the way the harness's multiplexer
// does, so both cost the same per event.
type multiSketch struct {
	order    []string
	builders map[string]sketch.Builder
	children map[string]sketch.Sketch
}

func newMultiBuilder(order []string, builders map[string]sketch.Builder) sketch.Builder {
	return func() sketch.Sketch {
		m := &multiSketch{order: order, builders: builders, children: make(map[string]sketch.Sketch, len(order))}
		for _, name := range order {
			m.children[name] = builders[name]()
		}
		return m
	}
}

func (m *multiSketch) child(name string) sketch.Sketch { return m.children[name] }

func (m *multiSketch) Insert(x float64) {
	for _, name := range m.order {
		m.children[name].Insert(x)
	}
}

func (m *multiSketch) InsertBatch(xs []float64) {
	for _, name := range m.order {
		sketch.InsertAll(m.children[name], xs)
	}
}

func (m *multiSketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*multiSketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into multi", sketch.ErrIncompatible, other.Name())
	}
	for _, name := range m.order {
		if err := m.children[name].Merge(o.children[name]); err != nil {
			return err
		}
	}
	return nil
}

func (m *multiSketch) ScaleCount(g float64) {
	for _, name := range m.order {
		m.children[name].(sketch.CountScaler).ScaleCount(g)
	}
}

func (m *multiSketch) Quantile(float64) (float64, error) {
	return 0, fmt.Errorf("query the multiplexer's children")
}

func (m *multiSketch) Rank(float64) (float64, error) {
	return 0, fmt.Errorf("query the multiplexer's children")
}

func (m *multiSketch) Count() uint64 { return m.children[m.order[0]].Count() }

func (m *multiSketch) MemoryBytes() int {
	total := 0
	for _, c := range m.children {
		total += c.MemoryBytes()
	}
	return total
}

func (m *multiSketch) Name() string { return "multi" }

func (m *multiSketch) Reset() {
	for _, c := range m.children {
		c.Reset()
	}
}

// multiTag marks the multiplexer's blobs, which only ever live inside
// the engine's decay clones.
const multiTag byte = 0x7E

// MarshalBinary writes each child's blob, name-prefixed, in order: the
// decayed sliding pass clones panes through it.
func (m *multiSketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64)
	w.Byte(multiTag)
	w.Byte(sketch.SerdeVersion)
	w.U32(uint32(len(m.order)))
	for _, name := range m.order {
		blob, err := m.children[name].MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("multi child %s: %w", name, err)
		}
		w.Blob([]byte(name))
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

func (m *multiSketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if r.Byte() != multiTag || r.Byte() != sketch.SerdeVersion {
		return fmt.Errorf("multi decode: %w", sketch.ErrCorrupt)
	}
	n := int(r.U32())
	if r.Err() != nil || n != len(m.order) {
		return fmt.Errorf("multi decode: %d children: %w", n, sketch.ErrCorrupt)
	}
	fresh := make(map[string]sketch.Sketch, n)
	for i := 0; i < n; i++ {
		name := string(r.Blob())
		blob := r.Blob()
		if r.Err() != nil || name != m.order[i] {
			return fmt.Errorf("multi decode child %d: %w", i, sketch.ErrCorrupt)
		}
		c := m.builders[name]()
		if err := c.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("multi decode child %s: %w", name, err)
		}
		fresh[name] = c
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("multi decode: trailing bytes: %w", sketch.ErrCorrupt)
	}
	m.children = fresh
	return nil
}
