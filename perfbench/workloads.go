package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// workload is one named benchmark input. Sizes are given at --scale 1;
// the smoke test runs them at a small scale.
type workload struct {
	// accuracy is the paper's accuracy experiment in this workload's
	// windowing; every untraced run re-drives it once (fig6: until the
	// latency sample is large enough) for rel_err and the output checks.
	accuracy accuracySpec
	// rep builds and runs one timed repetition, or nil for fig6, whose
	// timed passes run through internal/harness.
	rep func(p repParams) (repResult, error)
	// parallel marks a workload whose inserts run on worker goroutines
	// beside the engine's.
	parallel bool
	// config is stamped into the detail line.
	config map[string]any
}

// repParams are one repetition's inputs.
type repParams struct {
	seed  uint64
	scale float64
	t     *tracer // nil: untraced
	obs   *observer
	clock func() int64
	probe func()
}

// repResult is one repetition's work and wall time.
type repResult struct {
	generated int64
	wall      time.Duration
	stats     stream.Stats // summed over the repetition's engine runs
	windows   int
}

const (
	fig6Scale   = 0.02 // harness scale: 0.4 s windows of 20k events
	fig6Windows = 10
	// latencySamples is the number of emit latencies a run collects at
	// least: one per fired window, or on fig6 one per window and sketch.
	latencySamples = 2000

	lateRate     = 50000
	lateWindow   = 200 * time.Millisecond
	lateDelay    = 10 * time.Millisecond
	lateWindows  = 64
	lateWorkers  = 2
	lateCkptEach = 16

	slideRate    = 20000
	slideWindow  = 1600 * time.Millisecond
	slideSlide   = 100 * time.Millisecond
	slideLambda  = 1.0
	slideWindows = 1000
)

func workloads() map[string]workload {
	return map[string]workload{
		"fig6": {
			accuracy: accuracySpec{scale: fig6Scale, windows: fig6Windows},
			config: map[string]any{
				"harness_scale": fig6Scale, "windows_per_run": fig6Windows, "datasets": datagen.DatasetNames(),
				"partitions": 4, "workers": 1, "parallel": 1, "eval_workers": 1,
			},
		},
		"stream-late": {
			accuracy: accuracySpec{scale: fig6Scale, windows: fig6Windows, late: true},
			rep:      lateRep,
			parallel: true,
			config: map[string]any{
				"dataset": datagen.DatasetPareto, "sketch": core.AlgDD, "rate": lateRate, "window_s": lateWindow.Seconds(),
				"delay_mean_s": lateDelay.Seconds(), "windows_per_rep": lateWindows, "partitions": 4,
				"workers": lateWorkers, "checkpoint_every": lateCkptEach,
			},
		},
		"sliding-decay": {
			accuracy: accuracySpec{scale: fig6Scale, windows: 4 * fig6Windows, slideSeconds: 20.0 / 16, decayLambda: 0.05},
			rep:      slidingRep,
			config: map[string]any{
				"dataset": "normal(100, 15)", "sketches": core.AlgorithmNames(), "rate": slideRate,
				"window_s": slideWindow.Seconds(), "slide_s": slideSlide.Seconds(), "decay_lambda": slideLambda,
				"windows_per_sketch": slideWindows, "partitions": 4, "workers": 1,
			},
		},
	}
}

// scaled returns max(lo, round(n·scale)).
func scaled(n int, scale float64, lo int) int {
	v := int(math.Round(float64(n) * scale))
	if v < lo {
		v = lo
	}
	return v
}

// repSeeds derives a repetition's source, delay and builder seeds from
// the benchmark seed.
func repSeeds(seed uint64) (src, delay, builder uint64) {
	s := seed
	return datagen.SplitMix64(&s), datagen.SplitMix64(&s), datagen.SplitMix64(&s)
}

// lateRep runs the Sec 4.6 late-data configuration on one DDSketch:
// short tumbling windows, exponential network delay, four partitions
// fed by the parallel worker pool, and a checkpoint every few windows.
func lateRep(p repParams) (repResult, error) {
	start := p.clock()
	srcSeed, delaySeed, _ := repSeeds(p.seed)
	src, err := datagen.NewDataset(datagen.DatasetPareto, srcSeed)
	if err != nil {
		return repResult{}, err
	}
	builder, err := core.NewBuilder(core.AlgDD, core.BuilderOptions{})
	if err != nil {
		return repResult{}, err
	}
	var store checkpoint.Store = checkpoint.NewMemStore()
	if p.t != nil {
		builder = p.t.wrapBuilder(builder)
		store = tracedStore{inner: store, t: p.t}
	}
	cfg := stream.Config{
		WindowSize:      lateWindow,
		Rate:            lateRate,
		NumWindows:      scaled(lateWindows, p.scale, 2),
		Partitions:      4,
		Workers:         lateWorkers,
		Delay:           stream.NewExponentialDelay(lateDelay, delaySeed),
		Builder:         builder,
		CheckpointStore: store,
		CheckpointEvery: lateCkptEach,
	}
	return runEngine(cfg, src, p, start, false)
}

// slidingRep runs pane-shared sliding windows with exponential decay,
// one serial engine run per study sketch.
func slidingRep(p repParams) (repResult, error) {
	start := p.clock()
	srcSeed, _, builderSeed := repSeeds(p.seed)
	var total repResult
	for _, alg := range core.AlgorithmNames() {
		src := datagen.NewNormal(100, 15, srcSeed)
		builder, err := core.NewBuilder(alg, core.BuilderOptions{Seed: builderSeed})
		if err != nil {
			return total, err
		}
		if p.t != nil {
			builder = p.t.wrapBuilder(builder)
		}
		cfg := stream.Config{
			WindowSize:  slideWindow,
			Slide:       slideSlide,
			DecayLambda: slideLambda,
			Rate:        slideRate,
			NumWindows:  scaled(slideWindows, p.scale, 20),
			Partitions:  4,
			Workers:     1,
			Builder:     builder,
		}
		r, err := runEngine(cfg, src, p, start, true)
		if err != nil {
			return total, err
		}
		p.probe = nil
		total.generated += r.generated
		total.windows += r.windows
		total.stats.Accepted += r.stats.Accepted
		total.stats.DroppedLate += r.stats.DroppedLate
	}
	total.wall = time.Duration(p.clock() - start)
	return total, nil
}

// runEngine runs one engine over src. Every fired window answers the
// 8 study quantiles; the answer time less the time the source handed
// out the window's last event is the window's emit latency. The
// window's outputs are then checked and folded into the digest.
func runEngine(cfg stream.Config, src datagen.Source, p repParams, start int64, decayed bool) (repResult, error) {
	geo := newGeometry(cfg)
	ms, err := geo.source(src, p.clock, p.t)
	if err != nil {
		return repResult{}, err
	}
	ms.onFirst = p.probe
	cfg.Values = ms
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		return repResult{}, err
	}
	qs := core.AllQuantiles()
	windows := 0
	answer := func(r stream.WindowResult) error {
		est, err := sketch.Quantiles(r.Sketch, qs)
		segStart, segEnd := geo.window(r.Index)
		p.obs.latencyMS = append(p.obs.latencyMS, float64(p.clock()-ms.stamp[segEnd-1])/1e6)
		name := r.Sketch.Name()
		if err != nil {
			return fmt.Errorf("%s window %d: %w", name, r.Index, err)
		}
		p.obs.recordEstimates(r.Index, r.Sketch.Count(), est)
		err = checkWindowEnd(r, time.Duration(segEnd)*geo.segLen)
		if err == nil {
			lo, hi := ms.windowRange(segStart, segEnd)
			err = checkEstimates(name, est, lo, hi)
		}
		if err == nil {
			err = checkCount(name, r, r.Sketch.Count(), decayed)
		}
		if err != nil {
			err = fmt.Errorf("window %d: %w", r.Index, err)
		}
		return err
	}
	emit := func(r stream.WindowResult) {
		windows++
		if p.t == nil {
			p.obs.window(answer(r))
			return
		}
		t0 := p.t.now()
		p.obs.window(answer(r))
		p.t.observeWindowSketch(unwrap(r.Sketch))
		p.t.emit.add(p.t.now()-t0, 1)
	}
	t0 := p.clock()
	st, err := eng.Run(emit)
	if p.t != nil {
		p.t.engineNS.Add(p.clock() - t0)
		ms.finish()
	}
	if err != nil {
		return repResult{}, err
	}
	if err := checkStats(st); err != nil {
		p.obs.fail(err)
	}
	if windows != cfg.NumWindows {
		p.obs.fail(fmt.Errorf("engine fired %d windows, want %d", windows, cfg.NumWindows))
	}
	return repResult{
		generated: st.Generated,
		wall:      time.Duration(p.clock() - start),
		stats:     st,
		windows:   windows,
	}, nil
}

func checkWindowEnd(r stream.WindowResult, want time.Duration) error {
	if r.End != want {
		return fmt.Errorf("window ends at %v, want %v", r.End, want)
	}
	return nil
}
