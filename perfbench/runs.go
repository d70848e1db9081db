package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/harness"
)

const setupProbes = 15

// referenceSeed is the seed rel_err is evaluated at: the harness's
// default, the seed of the committed results/ tables.
const referenceSeed = 0x5eedc0de

// scaledAccuracy is the workload's accuracy spec at the run's scale.
func (w workload) scaledAccuracy(scale float64) accuracySpec {
	a := w.accuracy
	a.scale *= scale
	a.windows = scaled(a.windows, scale, 1)
	return a
}

// runUntraced measures the end-to-end metrics.
func runUntraced(o options, w workload, args []string) (*bench, error) {
	b := newBench()
	units := endToEndUnits
	setup, err := probeSetup(args, setupProbes)
	if err != nil {
		return nil, err
	}
	b.samples["setup_s"] = setup
	b.set("setup_s", median(setup), units)

	clock := monotonic()
	spec := w.scaledAccuracy(o.scale)
	target := scaled(latencySamples, o.scale, 10)
	var latency []float64
	var eps []float64

	if w.rep == nil {
		// fig6: the timed passes run through internal/harness; the
		// re-driven passes supply the emit latencies and the output
		// checks, and must reproduce the harness's tables.
		tables := map[int][]harness.Table{}
		warm, err := spec.harnessTables(passSeed(o.seed, 0))
		if err != nil {
			return nil, err
		}
		tables[0] = warm
		var walls []time.Duration
		deadline := clock() + int64(o.seconds)*int64(time.Second)
		for k := 1; len(walls) < 3 || clock() < deadline; k++ {
			settle()
			t0 := clock()
			tb, err := spec.harnessTables(passSeed(o.seed, k))
			if err != nil {
				return nil, err
			}
			walls = append(walls, time.Duration(clock()-t0))
			tables[k] = tb
		}
		var generated int64
		for k := 0; k == 0 || len(latency) < target; k++ {
			settle()
			obs := newObserver()
			r, err := accuracyPass(spec, passSeed(o.seed, k), nil, obs, clock, nil)
			if err != nil {
				return nil, err
			}
			if tb, ok := tables[k]; ok {
				if err := r.matches(tb); err != nil {
					obs.fail(err)
				}
			}
			// Without network delay every pass generates the same events.
			if k > 0 && r.generated != generated {
				obs.fail(fmt.Errorf("pass %d generated %d events, pass 0 %d", k, r.generated, generated))
			}
			generated = r.generated
			b.digests = append(b.digests, obs.sum())
			latency = append(latency, obs.latencyMS...)
			b.obs.absorb(obs)
		}
		for _, wall := range walls {
			eps = append(eps, float64(generated)/wall.Seconds())
		}
	} else {
		reps, err := timedReps(o, w, nil, clock, o.seconds, 2, target)
		if err != nil {
			return nil, err
		}
		b.obs.absorb(reps.obs)
		b.digests = reps.digests
		eps, latency = reps.eps, reps.latencyMS
	}

	// rel_err is read at a fixed seed, so it moves only when a change
	// alters what a sketch outputs: over the pass's windows its
	// seed-to-seed spread (up to half its value for KLL) would swamp
	// any bound.
	ref, rss, err := runReference(args)
	if err != nil {
		return nil, err
	}
	b.obs.absorb(&observer{attempted: ref.Attempted, failed: ref.Failed, failures: ref.Failures})

	b.samples["events_per_s"] = eps
	b.samples["emit_latency_ms"] = latency
	b.set("events_per_s", median(eps), units)
	b.set("emit_latency_p50_ms", percentile(latency, 50), units)
	// The latency tail is reported but not gated: on a 2-vCPU host
	// shared with other tenants its run-to-run spread exceeds any
	// usable bound (see README.md).
	b.tails = map[string]float64{
		"emit_latency_p95_ms": percentile(latency, 95),
		"emit_latency_p99_ms": percentile(latency, 99),
	}
	for _, alg := range core.AlgorithmNames() {
		b.set("rel_err."+alg, ref.RelErr[alg], units)
	}
	b.set("max_rss_mb", rss, units)
	return b, nil
}

// settle returns the previous pass's garbage to the operating system
// before the next pass starts, so each pass's peak memory starts from
// the same floor.
func settle() { debug.FreeOSMemory() }

// passSeed is the input seed of a run's k-th pass or repetition: each
// covers other inputs, so a run's medians speak for several inputs,
// not for one seed's slowest window.
func passSeed(seed uint64, k int) uint64 { return datagen.DeriveSeed(seed, k) }

// repsResult collects a run's timed repetitions.
type repsResult struct {
	eps       []float64
	latencyMS []float64
	obs       *observer
	digests   []uint64 // outputs of repetition k
	reps      int
	sum       repResult
}

// timedReps runs repetition k = 0, 1, … on the inputs of
// passSeed(seed, k) until seconds have passed, at least minReps ran and
// at least minLatency windows were answered.
func timedReps(o options, w workload, t *tracer, clock func() int64, seconds, minReps, minLatency int) (repsResult, error) {
	out := repsResult{obs: newObserver()}
	deadline := clock() + int64(seconds)*int64(time.Second)
	for k := 0; k < minReps || clock() < deadline || len(out.latencyMS) < minLatency; k++ {
		settle()
		obs := newObserver()
		r, err := w.rep(repParams{seed: passSeed(o.seed, k), scale: o.scale, t: t, obs: obs, clock: clock})
		if err != nil {
			return out, err
		}
		out.digests = append(out.digests, obs.sum())
		out.obs.absorb(obs)
		out.reps++
		out.eps = append(out.eps, float64(r.generated)/r.wall.Seconds())
		out.latencyMS = append(out.latencyMS, obs.latencyMS...)
		out.sum.generated += r.generated
		out.sum.windows += r.windows
		out.sum.stats.Accepted += r.stats.Accepted
		out.sum.stats.DroppedLate += r.stats.DroppedLate
	}
	return out, nil
}

// runTraced makes an untraced and a traced run of the workload's timed
// pass, checks that tracing left every output bit-identical, and
// reports the per-layer metrics from the traced run.
func runTraced(o options, w workload) (*bench, error) {
	b := newBench()
	units := perLayerUnits()
	clock := monotonic()
	t := newTracer()
	var untracedEPS, tracedEPS []float64
	var perRep repResult
	var reps int
	parallel := false

	if w.rep == nil {
		spec := w.scaledAccuracy(o.scale)
		passes := func(tr *tracer) ([]float64, []uint64, error) {
			var eps []float64
			var digests []uint64
			deadline := clock() + int64(o.seconds)*int64(time.Second)
			for k := 0; k == 0 || clock() < deadline; k++ {
				obs := newObserver()
				t0 := clock()
				r, err := accuracyPass(spec, passSeed(o.seed, k), tr, obs, clock, nil)
				if err != nil {
					return nil, nil, err
				}
				eps = append(eps, float64(r.generated)/time.Duration(clock()-t0).Seconds())
				digests = append(digests, obs.sum())
				b.obs.absorb(obs)
				if tr != nil {
					reps++
					perRep.generated += r.generated
					perRep.windows += r.windows
					perRep.stats.Accepted += r.stats.Accepted
					perRep.stats.DroppedLate += r.stats.DroppedLate
				}
			}
			return eps, digests, nil
		}
		var du, dt []uint64
		var err error
		if untracedEPS, du, err = passes(nil); err != nil {
			return nil, err
		}
		if tracedEPS, dt, err = passes(t); err != nil {
			return nil, err
		}
		b.digests = du
		b.obs.compareDigests(du, dt)
	} else {
		parallel = w.parallel
		u, err := timedReps(o, w, nil, clock, o.seconds, 2, 0)
		if err != nil {
			return nil, err
		}
		b.obs.absorb(u.obs)
		tr, err := timedReps(o, w, t, clock, o.seconds, 2, 0)
		if err != nil {
			return nil, err
		}
		b.obs.absorb(tr.obs)
		b.digests = u.digests
		b.obs.compareDigests(u.digests, tr.digests)
		untracedEPS, tracedEPS = u.eps, tr.eps
		perRep, reps = tr.sum, tr.reps
	}

	lad, err := replayLadder(t.recorded)
	if err != nil {
		return nil, err
	}
	b.samples["untraced_events_per_s"] = untracedEPS
	b.samples["traced_events_per_s"] = tracedEPS
	b.samples["ddsketch.index_ns"] = lad.indexNS
	b.samples["ddsketch.store_add_ns"] = lad.addNS
	for name, v := range layerMetrics(t, perRep, reps, parallel, lad) {
		b.set(name, v, units)
	}
	u, tr := median(untracedEPS), median(tracedEPS)
	b.set("trace.overhead_pct", 100*(u-tr)/u, units)
	return b, nil
}

// layerMetrics turns the tracer's aggregates into the per-layer
// metrics. Counts are per repetition (per pass for fig6).
func layerMetrics(t *tracer, sum repResult, reps int, parallel bool, lad ladder) map[string]float64 {
	c := t.clockNS
	m := map[string]float64{
		"datagen.next_ns":          t.next.perUnitNS(c),
		"stats.exact_ns_per_value": t.exact.perUnitNS(c),
		"core.evaluate_us":         t.evaluate.perCallUS(c),
		"checkpoint.put_us":        t.put.perCallUS(c),
		"trace.clock_ns":           c,
		"ddsketch.index_ns":        median(lad.indexNS),
		"ddsketch.store_add_ns":    median(lad.addNS),
		"uddsketch.collapses":      ratio(t.collapses.Load(), t.uddWindows.Load()),
		"checkpoint.bytes":         ratio(t.putBytes.Load(), t.put.calls.Load()),
		"stream.accepted":          ratio(sum.stats.Accepted, int64(reps)),
		"stream.dropped_late":      ratio(sum.stats.DroppedLate, int64(reps)),
		"stream.windows":           ratio(int64(sum.windows), int64(reps)),
	}
	// Engine self time: wall time inside Engine.Run less the time the
	// engine spent in the source, the sketches, the checkpoint store
	// and the emit callback. On the parallel path inserts run on the
	// worker goroutines alongside the engine, so they are not subtracted.
	outside := t.next.estimatedNS(c) + fullNS(&t.put, c) + fullNS(&t.emit, c)
	for _, name := range sketchNames() {
		st := t.sketches[name]
		m[name+".insert_ns"] = st.insert.perUnitNS(c)
		m[name+".quantiles_us"] = st.quantiles.perCallUS(c)
		m[name+".merge_us"] = st.merge.perCallUS(c)
		m[name+".marshal_us"] = st.marshal.perCallUS(c)
		m[name+".unmarshal_us"] = st.unmarshal.perCallUS(c)
		m[name+".scale_us"] = st.scale.perCallUS(c)
		m[name+".footprint_kb"] = ratio(st.footprintBytes.Load(), st.footprints.Load()) / 1024
		outside += fullNS(&st.merge, c) + fullNS(&st.marshal, c) + fullNS(&st.unmarshal, c) + fullNS(&st.scale, c)
		if !parallel {
			outside += st.insert.estimatedNS(c)
		}
	}
	m["stream.self_ns_per_event"] = (float64(t.engineNS.Load()) - outside) / float64(t.next.calls.Load())
	m["ddsketch.ladder_residual_ns"] = m["ddsketch.insert_ns"] - m["ddsketch.index_ns"] - m["ddsketch.store_add_ns"]
	return m
}

// fullNS is the total time of a layer whose every call was timed.
func fullNS(s *layerStat, clockNS float64) float64 {
	return float64(s.ns.Load()) - clockNS*float64(s.timed.Load())
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ladder is the DDSketch insert path replayed one layer at a time.
type ladder struct {
	indexNS, addNS []float64 // per-value cost, one sample per replay
}

const ladderReplays = 7

// replayLadder feeds values the traced run handed to the sketches
// through the study DDSketch's two layers: the cubic index mapping, and
// the dense store's Add. Each replay times a whole loop, so no clock
// read sits inside the measured calls.
func replayLadder(values []float64) (ladder, error) {
	var l ladder
	m, err := ddsketch.NewCubic(core.DDSketchAlpha)
	if err != nil {
		return l, err
	}
	var pos []float64
	for _, v := range values {
		if v > 0 && v >= m.MinIndexable() {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return l, fmt.Errorf("ladder: no positive values recorded")
	}
	idx := make([]int, len(pos))
	for r := 0; r < ladderReplays; r++ {
		t0 := time.Now()
		for i, v := range pos {
			idx[i] = m.Index(v)
		}
		l.indexNS = append(l.indexNS, float64(time.Since(t0).Nanoseconds())/float64(len(pos)))
		s := ddsketch.NewDenseStore()
		t0 = time.Now()
		for _, i := range idx {
			s.Add(i, 1)
		}
		l.addNS = append(l.addNS, float64(time.Since(t0).Nanoseconds())/float64(len(pos)))
		if s.Total() != int64(len(pos)) {
			return l, fmt.Errorf("ladder: store holds %d of %d values", s.Total(), len(pos))
		}
	}
	if math.IsNaN(median(l.indexNS)) {
		return l, fmt.Errorf("ladder: no timing")
	}
	return l, nil
}
