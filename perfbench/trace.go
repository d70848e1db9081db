package main

import (
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sketch"
)

// sampleMask selects which calls of a ~10 ns operation (Insert,
// Source.Next) get a clock read: one in 64, chosen by the call's
// sequence number so the sample is deterministic. Every call is still
// counted.
const sampleMask = 63

// layerStat accumulates one layer's calls. Timed calls carry their
// duration and the number of values they covered, so per-call and
// per-value figures both come out of the same record. Fields are
// atomic because the parallel engine path calls sketches from its
// worker goroutines.
type layerStat struct {
	calls atomic.Int64 // every call, timed or not
	timed atomic.Int64 // calls that were timed
	units atomic.Int64 // values covered by the timed calls
	ns    atomic.Int64 // total duration of the timed calls
}

func (s *layerStat) add(ns, units int64) {
	s.calls.Add(1)
	s.timed.Add(1)
	s.units.Add(units)
	s.ns.Add(ns)
}

// perUnitNS is the mean duration per covered value, less the cost of
// the clock read inside each timed interval.
func (s *layerStat) perUnitNS(clockNS float64) float64 {
	u := s.units.Load()
	if u == 0 {
		return 0
	}
	return (float64(s.ns.Load()) - clockNS*float64(s.timed.Load())) / float64(u)
}

// perCallUS is the mean duration of one timed call in microseconds.
func (s *layerStat) perCallUS(clockNS float64) float64 {
	n := s.timed.Load()
	if n == 0 {
		return 0
	}
	return (float64(s.ns.Load())/float64(n) - clockNS) / 1e3
}

// estimatedNS extrapolates the sampled mean to every call.
func (s *layerStat) estimatedNS(clockNS float64) float64 {
	return s.perUnitNS(clockNS) * float64(s.calls.Load())
}

// sketchStats is the per-sketch set of layers timed at the sketch.Sketch
// boundary.
type sketchStats struct {
	insert, quantiles, merge, marshal, unmarshal, scale layerStat
	footprintBytes, footprints                          atomic.Int64
}

// tracer keeps every span aggregate of one traced pass in memory; the
// report reads it once the pass is over.
type tracer struct {
	base    time.Time
	clockNS float64

	sketches map[string]*sketchStats // fixed at construction: read-only afterwards
	next     layerStat               // datagen Source.Next
	exact    layerStat               // stats.NewExactQuantiles, per value
	evaluate layerStat               // core.EvaluateAgainst, per call
	put      layerStat               // checkpoint Store.Put
	putBytes atomic.Int64
	emit     layerStat // the emit callback, per fired window

	engineNS   atomic.Int64 // wall time inside stream.Engine.Run
	collapses  atomic.Int64 // UDDSketch collapse levels over fired windows
	uddWindows atomic.Int64

	// recorded keeps the first values the source hands out, replayed
	// through the DDSketch layer ladder after the pass.
	recorded []float64
}

const ladderValues = 1 << 18

func newTracer() *tracer {
	t := &tracer{base: time.Now(), sketches: make(map[string]*sketchStats)}
	for _, name := range core.AlgorithmNames() {
		t.sketches[name] = &sketchStats{}
	}
	t.clockNS = t.measureClock()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// measureClock returns the median cost of one clock read over a few
// batches, which each timed interval contains once.
func (t *tracer) measureClock() float64 {
	const reads = 1 << 14
	var per []float64
	for b := 0; b < 7; b++ {
		start := t.now()
		for i := 0; i < reads; i++ {
			t.now()
		}
		per = append(per, float64(t.now()-start)/reads)
	}
	return median(per)
}

// wrapBuilder returns a builder whose products time their calls into t.
func (t *tracer) wrapBuilder(b sketch.Builder) sketch.Builder {
	return func() sketch.Sketch {
		inner := b()
		return &tracedSketch{inner: inner, st: t.sketches[inner.Name()], t: t}
	}
}

// tracedSketch times the calls the engine and the evaluator make into
// one sketch. Every method forwards to the inner sketch unchanged, so a
// traced run computes exactly what an untraced run computes.
type tracedSketch struct {
	inner   sketch.Sketch
	st      *sketchStats
	t       *tracer
	n       uint64 // Insert calls so far, for sampling
	pending int64  // Insert calls not yet added to st.insert.calls
}

var (
	_ sketch.Sketch          = (*tracedSketch)(nil)
	_ sketch.BatchInserter   = (*tracedSketch)(nil)
	_ sketch.MultiQuantiler  = (*tracedSketch)(nil)
	_ sketch.CountScaler     = (*tracedSketch)(nil)
	_ sketch.AccuracyBounder = (*tracedSketch)(nil)
)

// flush publishes the locally counted Insert calls. Sketches are
// single-writer, so the count stays local until the sketch is handed
// on (merged, queried or serialized).
func (s *tracedSketch) flush() {
	if s.pending != 0 {
		s.st.insert.calls.Add(s.pending)
		s.pending = 0
	}
}

func (s *tracedSketch) Insert(x float64) {
	s.n++
	if s.n&sampleMask != 0 {
		s.pending++
		s.inner.Insert(x)
		return
	}
	t0 := s.t.now()
	s.inner.Insert(x)
	s.st.insert.add(s.t.now()-t0, 1)
}

func (s *tracedSketch) InsertBatch(xs []float64) {
	t0 := s.t.now()
	sketch.InsertAll(s.inner, xs)
	d := s.t.now() - t0
	s.st.insert.calls.Add(int64(len(xs)) - 1)
	s.st.insert.add(d, int64(len(xs)))
}

func (s *tracedSketch) QuantileAll(qs []float64) ([]float64, error) {
	s.flush()
	t0 := s.t.now()
	out, err := sketch.Quantiles(s.inner, qs)
	s.st.quantiles.add(s.t.now()-t0, 1)
	return out, err
}

func (s *tracedSketch) Merge(other sketch.Sketch) error {
	if o, ok := other.(*tracedSketch); ok {
		o.flush()
		other = o.inner
	}
	t0 := s.t.now()
	err := s.inner.Merge(other)
	s.st.merge.add(s.t.now()-t0, 1)
	return err
}

func (s *tracedSketch) MarshalBinary() ([]byte, error) {
	s.flush()
	t0 := s.t.now()
	b, err := s.inner.MarshalBinary()
	s.st.marshal.add(s.t.now()-t0, 1)
	return b, err
}

func (s *tracedSketch) UnmarshalBinary(data []byte) error {
	t0 := s.t.now()
	err := s.inner.UnmarshalBinary(data)
	s.st.unmarshal.add(s.t.now()-t0, 1)
	return err
}

func (s *tracedSketch) ScaleCount(g float64) {
	t0 := s.t.now()
	s.inner.(sketch.CountScaler).ScaleCount(g)
	s.st.scale.add(s.t.now()-t0, 1)
}

// AccuracyBound forwards the inner bound; like the engine, it reports 0
// for a sketch without one.
func (s *tracedSketch) AccuracyBound() float64 {
	if ab, ok := s.inner.(sketch.AccuracyBounder); ok {
		return ab.AccuracyBound()
	}
	return 0
}

func (s *tracedSketch) Quantile(q float64) (float64, error) { return s.inner.Quantile(q) }
func (s *tracedSketch) Rank(x float64) (float64, error)     { return s.inner.Rank(x) }
func (s *tracedSketch) Count() uint64                       { return s.inner.Count() }
func (s *tracedSketch) MemoryBytes() int                    { return s.inner.MemoryBytes() }
func (s *tracedSketch) Name() string                        { return s.inner.Name() }
func (s *tracedSketch) Reset()                              { s.inner.Reset() }

// unwrap returns the sketch a traced wrapper stands for.
func unwrap(s sketch.Sketch) sketch.Sketch {
	if ts, ok := s.(*tracedSketch); ok {
		return ts.inner
	}
	return s
}

// tracedStore times checkpoint writes.
type tracedStore struct {
	inner checkpoint.Store
	t     *tracer
}

func (s tracedStore) Put(seq uint64, data []byte) error {
	t0 := s.t.now()
	err := s.inner.Put(seq, data)
	s.t.put.add(s.t.now()-t0, 1)
	s.t.putBytes.Add(int64(len(data)))
	return err
}

func (s tracedStore) Get(seq uint64) ([]byte, error) { return s.inner.Get(seq) }
func (s tracedStore) Seqs() ([]uint64, error)        { return s.inner.Seqs() }

// markedSource wraps a workload's value source. It knows the index of
// the last event of every segment (a tumbling window, or a pane of a
// sliding window), stamps the clock when that event is handed out, and
// keeps each segment's value range for the output checks. With a
// tracer it also times a deterministic sample of Next calls and records
// the first values for the layer-ladder replay.
type markedSource struct {
	src     datagen.Source
	n       int64
	seg     int
	segLast []int64
	segMin  []float64
	segMax  []float64
	stamp   []int64
	clock   func() int64
	t       *tracer
	// onFirst, when set, runs as the first value is requested: the
	// set-up probe exits there.
	onFirst func()
}

func (m *markedSource) Next() float64 {
	if m.onFirst != nil && m.n == 0 {
		m.onFirst()
	}
	var v float64
	if m.t != nil {
		// Untimed calls are counted in finish.
		if m.n&sampleMask == 0 {
			t0 := m.t.now()
			v = m.src.Next()
			m.t.next.add(m.t.now()-t0, 1)
		} else {
			v = m.src.Next()
		}
		if len(m.t.recorded) < ladderValues {
			m.t.recorded = append(m.t.recorded, v)
		}
	} else {
		v = m.src.Next()
	}
	i := m.n
	m.n++
	if m.seg < len(m.segLast) {
		if v < m.segMin[m.seg] {
			m.segMin[m.seg] = v
		}
		if v > m.segMax[m.seg] {
			m.segMax[m.seg] = v
		}
		if i == m.segLast[m.seg] {
			m.stamp[m.seg] = m.clock()
			m.seg++
		}
	}
	return v
}

// finish adds the pass's untimed Next calls to the tracer's count.
func (m *markedSource) finish() {
	if m.t != nil {
		m.t.next.calls.Add(m.n - (m.n+sampleMask)/(sampleMask+1))
	}
}

// observeWindowSketch records the live footprint of one fired window's
// sketch and, for UDDSketch, the collapse level its bound reveals.
func (t *tracer) observeWindowSketch(sk sketch.Sketch) {
	st := t.sketches[sk.Name()]
	st.footprintBytes.Add(int64(sketch.FootprintOf(sk)))
	st.footprints.Add(1)
	if u, ok := sk.(interface{ InitialAlpha() float64 }); ok {
		if c, err := uddCollapses(u.InitialAlpha(), boundOf(sk)); err == nil {
			t.collapses.Add(int64(c))
			t.uddWindows.Add(1)
		}
	}
}
