package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/datagen"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// geometry maps a stream configuration's windows onto segments: the
// tumbling windows themselves, or the panes a sliding window is built
// from. It mirrors the engine's documented window layout so the
// benchmark can stamp each window's last event as the source hands it
// out.
type geometry struct {
	interval    time.Duration // gap between generated events
	segLen      time.Duration
	numSegs     int
	paned       bool
	panesPerGap int
	panesPerWin int
	firstOff    int
}

func newGeometry(cfg stream.Config) geometry {
	g := geometry{interval: time.Second / time.Duration(cfg.Rate)}
	if cfg.Slide > 0 && cfg.Slide < cfg.WindowSize {
		p := gcd(cfg.WindowSize, cfg.Slide)
		g.paned = true
		g.segLen = p
		g.panesPerGap = int(cfg.Slide / p)
		g.panesPerWin = int(cfg.WindowSize / p)
		g.firstOff = 1 - int((cfg.WindowSize+cfg.Slide-1)/cfg.Slide)
		_, g.numSegs = g.window(cfg.NumWindows - 1)
		return g
	}
	g.segLen = cfg.WindowSize
	g.numSegs = cfg.NumWindows
	return g
}

func gcd(a, b time.Duration) time.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// window returns the segments [start, end) window k covers.
func (g geometry) window(k int) (start, end int) {
	if !g.paned {
		return k, k + 1
	}
	start = (g.firstOff + k) * g.panesPerGap
	end = start + g.panesPerWin
	if start < 0 {
		start = 0
	}
	return start, end
}

// source wraps src so it stamps clock when each segment's last event
// is handed out.
func (g geometry) source(src datagen.Source, clock func() int64, t *tracer) (*markedSource, error) {
	m := &markedSource{
		src:     src,
		segLast: make([]int64, g.numSegs),
		segMin:  make([]float64, g.numSegs),
		segMax:  make([]float64, g.numSegs),
		stamp:   make([]int64, g.numSegs),
		clock:   clock,
		t:       t,
	}
	iv := int64(g.interval)
	for j := range m.segLast {
		end := int64(j+1) * int64(g.segLen)
		m.segLast[j] = (end+iv-1)/iv - 1
		if j > 0 && m.segLast[j] <= m.segLast[j-1] {
			return nil, fmt.Errorf("segment %d holds no event", j)
		}
		m.segMin[j] = math.Inf(1)
		m.segMax[j] = math.Inf(-1)
	}
	return m, nil
}

// windowRange is the value range of every event generated inside window
// k's segments: a superset of the window's accepted events.
func (m *markedSource) windowRange(start, end int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for j := start; j < end; j++ {
		lo = math.Min(lo, m.segMin[j])
		hi = math.Max(hi, m.segMax[j])
	}
	return lo, hi
}

// observer collects what every fired window contributes to the result:
// its emit latency, the outcome of its output checks, and its outputs
// folded into a digest that identifies the pass's results bit for bit.
type observer struct {
	latencyMS []float64
	attempted int
	failed    int
	failures  []string
	digest    hash.Hash64
	buf       [8]byte
}

func newObserver() *observer { return &observer{digest: fnv.New64a()} }

func (o *observer) add(v uint64) {
	binary.LittleEndian.PutUint64(o.buf[:], v)
	o.digest.Write(o.buf[:])
}

// window records one fired window's check outcome.
func (o *observer) window(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, err.Error())
		}
	}
}

// fail records a failure that is not tied to one window, such as a
// broken accounting identity; it counts as one failed operation.
func (o *observer) fail(err error) {
	o.attempted++
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err.Error())
	}
}

func (o *observer) sum() uint64 { return o.digest.Sum64() }

// absorb adds another observer's check outcomes to o's.
func (o *observer) absorb(p *observer) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < 10 {
			o.failures = append(o.failures, f)
		}
	}
}

// compareDigests fails when a traced pass's outputs differ from the
// untraced pass on the same inputs.
func (o *observer) compareDigests(untraced, traced []uint64) {
	for k := range traced {
		if k < len(untraced) && untraced[k] != traced[k] {
			o.fail(fmt.Errorf("traced pass %d outputs differ from the untraced pass", k))
		}
	}
}

// recordEstimates folds one sketch's window answers into the digest.
func (o *observer) recordEstimates(index int, count uint64, est []float64) {
	o.add(uint64(index))
	o.add(count)
	for _, e := range est {
		o.add(math.Float64bits(e))
	}
}

// checkEstimates fails when an estimate is non-finite or outside the
// window's value range.
func checkEstimates(name string, est []float64, lo, hi float64) error {
	for i, e := range est {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return fmt.Errorf("%s: estimate %d is %v", name, i, e)
		}
		if e < lo || e > hi {
			return fmt.Errorf("%s: estimate %d = %v outside [%v, %v]", name, i, e, lo, hi)
		}
	}
	return nil
}

// checkAlpha fails when a relative-error sketch's estimate is farther
// than its reported bound α from the exact quantile (the rank-⌈qN⌉
// element both the sketches and the oracle use). The small slack only
// absorbs floating-point rounding in the bucket midpoint.
func checkAlpha(name string, est, exact []float64, alpha float64) error {
	for i := range est {
		if math.Abs(est[i]-exact[i]) > alpha*math.Abs(exact[i])*(1+1e-9) {
			return fmt.Errorf("%s: estimate %v vs exact %v breaks α=%v", name, est[i], exact[i], alpha)
		}
	}
	return nil
}

// checkCount fails when the merged sketch's count disagrees with the
// window's accepted events. Under time decay older panes are scaled
// down before the merge, so the count must lie between the newest
// pane's (weight 1) and the undecayed total.
func checkCount(name string, r stream.WindowResult, count uint64, decayed bool) error {
	if !decayed {
		if int64(count) != r.Accepted {
			return fmt.Errorf("%s: window %d count %d, accepted %d", name, r.Index, count, r.Accepted)
		}
		return nil
	}
	newest := int64(0)
	if n := len(r.PaneCounts); n > 0 {
		newest = int64(r.PaneCounts[n-1])
	}
	if int64(count) < newest || int64(count) > r.Accepted {
		return fmt.Errorf("%s: decayed window %d count %d outside [%d, %d]", name, r.Index, count, newest, r.Accepted)
	}
	return nil
}

// checkStats verifies the engine's accounting identity for one run.
func checkStats(st stream.Stats) error {
	if st.Generated != st.Accepted+st.DroppedLate+st.RejectedInput+st.ShedBudget {
		return fmt.Errorf("accounting: generated %d != accepted %d + late %d + rejected %d + shed %d",
			st.Generated, st.Accepted, st.DroppedLate, st.RejectedInput, st.ShedBudget)
	}
	return nil
}

// uddCollapses recovers how many uniform collapses a UDDSketch went
// through from the bound it reports: each collapse maps α to
// 2α/(1+α²), starting from the initial α.
func uddCollapses(alpha0, alpha float64) (int, error) {
	a := alpha0
	for c := 0; c <= 64; c++ {
		if a == alpha {
			return c, nil
		}
		a = 2 * a / (1 + a*a)
	}
	return 0, fmt.Errorf("uddsketch: α=%v is not a collapse level of α0=%v", alpha, alpha0)
}

// boundOf reads a sketch's reported accuracy bound, 0 when it has none.
func boundOf(s sketch.Sketch) float64 {
	if ab, ok := s.(sketch.AccuracyBounder); ok {
		return ab.AccuracyBound()
	}
	return 0
}
