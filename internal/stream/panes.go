package stream

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sketch"
)

// Pane-based sharing for sliding windows (DESIGN.md §15).
//
// A sliding job with window length W and slide S decomposes the stream
// into non-overlapping panes of length g = gcd(W, S): every window is
// an exact union of W/g consecutive panes, and consecutive windows
// differ by S/g panes. Each accepted event is inserted once, into its
// pane's partition sketches; when a window fires, its constituent pane
// sketches are merged — ~W/S merges per window instead of re-inserting
// every event W/S times. The geometry matches SlidingAssigner's
// clamped window family: window starts sit on the slide lattice
// {m·S : m ∈ ℤ}, the first emitted window is the earliest one whose
// end is positive (m = 1 - ceil(W/S)), and nominal starts before the
// stream origin clamp to 0.
//
// A pane is sealed — its partition sketches pulled from the sink and
// merged into one immutable pane sketch — when the first window
// containing it fires. Sealed panes are retained until the last window
// referencing them fires, then evicted. Events arriving for a sealed
// pane are dropped late from every remaining window: the sharing
// trade-off, consistent with the tumbling engine's drop-on-fire rule
// (of which this is the exact degenerate case at S == W, where pane ==
// window and sealing == firing).
//
// With DecayLambda > 0, window assembly down-weights each pane by
// exp(-λ·age), age being the seconds between the pane's end and the
// window's end. The newest pane has age 0 and is merged directly; an
// older pane enters through sketch.MergeScaled, which folds the sealed
// sketch in at its weight without modifying it, so the pane stays
// exact for the later windows that still reference it. Sketches with a
// sketch.ScaledMerger kernel do that in one pass; any other
// sketch.CountScaler takes the helper's reference path (serde clone
// into a fresh builder product, ScaleCount, Merge), which every kernel
// matches bit for bit. λ = 0 makes every weight 1 and is bit-identical
// to the undecayed sliding run.

// sealedPane is one sealed pane: its merged sketch (nil if the pane
// held engine-side state but no inserts) plus the engine-side
// counters, immutable until evicted.
type sealedPane struct {
	sketch   sketch.Sketch
	values   []float64
	accepted int64
	degrades int // budget degradations applied to this pane's sketch
}

// gcdDur is the greatest common divisor of two positive durations.
func gcdDur(a, b time.Duration) time.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// initPanes switches rs into pane mode, deriving the pane geometry
// from WindowSize and Slide and re-deriving the run span: the run ends
// when the last window does, (NumWindows-1)·Slide + WindowSize after
// the origin, not NumWindows·WindowSize.
func (rs *runState) initPanes() {
	cfg := &rs.cfg
	g := gcdDur(cfg.WindowSize, cfg.Slide)
	rs.paneMode = true
	rs.paneSize = g
	rs.panesPerGap = int(cfg.Slide / g)
	rs.panesPerWin = int(cfg.WindowSize / g)
	rs.firstOff = 1 - int((cfg.WindowSize+cfg.Slide-1)/cfg.Slide)
	rs.numPanes = rs.paneEnd(cfg.NumWindows - 1)
	rs.sealed = map[int]*sealedPane{}
	rs.runEnd = g * time.Duration(rs.numPanes)
	rs.genEnd = rs.runEnd + cfg.WindowSize
}

// paneEnd is the exclusive pane bound of window k; the window's end
// time is paneEnd(k)·paneSize.
func (rs *runState) paneEnd(k int) int {
	return (rs.firstOff+k)*rs.panesPerGap + rs.panesPerWin
}

// paneStart is the inclusive first pane of window k, clamped to the
// stream origin for the early windows.
func (rs *runState) paneStart(k int) int {
	s := (rs.firstOff + k) * rs.panesPerGap
	if s < 0 {
		s = 0
	}
	return s
}

// lateWindowOf attributes a late event in sealed pane pi to the newest
// already-fired window containing that pane, for the per-window
// late-drop accounting.
func (rs *runState) lateWindowOf(pi int) int {
	k := pi/rs.panesPerGap - rs.firstOff
	if k > rs.nextFire-1 {
		k = rs.nextFire - 1
	}
	if k >= rs.cfg.NumWindows {
		k = rs.cfg.NumWindows - 1
	}
	return k
}

// routePaned classifies one event in pane mode: reject, late-drop
// (sealed pane), or insert into its pane. The open map is keyed by
// pane index; the sink's window key is the pane index too.
func (rs *runState) routePaned(ev Event) {
	cfg := &rs.cfg
	pi := int(ev.GenTime / rs.paneSize)
	switch {
	case math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0):
		// Tracked-range guard: pi < numPanes ⟺ GenTime < runEnd, the
		// pane-mode equivalent of the tumbling wi < NumWindows check.
		if pi >= 0 && pi < rs.numPanes {
			rs.stats.RejectedInput++
			if rs.met != nil {
				rs.met.RejectedInput.Inc()
			}
		}
	case pi < rs.nextSeal:
		// The pane was sealed when its first window fired: the event
		// is dropped from every window, including unfired ones — the
		// pane-sharing late rule (§15).
		if pi >= 0 {
			rs.lateOf[rs.lateWindowOf(pi)]++
			rs.stats.DroppedLate++
			if rs.met != nil {
				rs.met.DroppedLate.Inc()
			}
		}
	case pi < rs.numPanes:
		if rs.shedding {
			// Budget exhausted past every degradation rung: shed, count,
			// and let the event still advance the watermark in process.
			rs.stats.ShedBudget++
			if rs.met != nil {
				rs.met.BudgetShed.Inc()
			}
			return
		}
		w := rs.open[pi]
		if w == nil {
			w = &windowState{index: pi}
			rs.open[pi] = w
			if rs.met != nil {
				rs.met.PanesOpen.Set(int64(len(rs.open) + len(rs.sealed)))
			}
		}
		part := ev.Partition % cfg.Partitions
		if rs.serialFaults != nil {
			rs.serialFaults.OnEvent(0, part, rs.serialInserts, rs.partInserts[part])
			rs.serialInserts++
			rs.partInserts[part]++
		}
		rs.sink.insert(pi, part, ev.Value)
		if rs.sharedW != nil {
			rs.sharedW.Insert(ev.Value)
		}
		w.accepted++
		rs.stats.Accepted++
		if rs.met != nil {
			rs.met.Inserted.Inc()
		}
		if cfg.CollectValues {
			w.values = append(w.values, ev.Value)
		}
	}
}

// sealPane pulls pane j's partition sketches from the sink (a fire
// barrier for that pane) and merges them, in partition order, into one
// immutable pane sketch. Panes that saw no events leave no entry.
func (rs *runState) sealPane(j int) error {
	w := rs.open[j]
	delete(rs.open, j)
	parts, sinkDeg := rs.sink.partials(j)
	if err := rs.sink.err(); err != nil {
		return err
	}
	var sk sketch.Sketch
	for _, p := range parts {
		if p == nil {
			continue
		}
		if sk == nil {
			sk = rs.cfg.Builder()
		}
		if err := sk.Merge(p); err != nil {
			return fmt.Errorf("stream: pane %d merge: %w", j, err)
		}
	}
	if sk == nil && w == nil {
		return nil
	}
	sp := &sealedPane{sketch: sk, degrades: sinkDeg}
	if w != nil {
		sp.values = w.values
		sp.accepted = w.accepted
		sp.degrades += w.degrades
	}
	rs.sealed[j] = sp
	if sk != nil && rs.gov != nil {
		// Sealed panes stay resident until evicted, so the governor
		// tracks them under the negative-id namespace (-1-j).
		rs.gov.Track(-1-int64(j), sk)
	}
	return nil
}

// paneWeight is pane j's decay weight when merged into a window ending
// at endT: exp(-λ·age) with age the seconds from the pane's end to the
// window's end. The window's newest pane has age 0 and weight 1.
func (rs *runState) paneWeight(j int, endT time.Duration) float64 {
	if rs.cfg.DecayLambda == 0 {
		return 1
	}
	age := (endT - rs.paneSize*time.Duration(j+1)).Seconds()
	return math.Exp(-rs.cfg.DecayLambda * age)
}

// firePaned fires window k: seal every pane the fire makes immutable,
// assemble the window by merging its panes oldest-first (down-weighted
// under decay), emit, and evict panes no remaining window references.
func (rs *runState) firePaned(k int) error {
	endPane := rs.paneEnd(k)
	for j := rs.nextSeal; j < endPane; j++ {
		if err := rs.sealPane(j); err != nil {
			return err
		}
	}
	rs.nextSeal = endPane
	startPane := rs.paneStart(k)
	endT := rs.paneSize * time.Duration(endPane)
	merged := rs.cfg.Builder()
	var values []float64
	var accepted int64
	degrades := 0
	paneCounts := make([]int, 0, endPane-startPane)
	for j := startPane; j < endPane; j++ {
		sp := rs.sealed[j]
		if sp == nil {
			paneCounts = append(paneCounts, 0)
			continue
		}
		paneCounts = append(paneCounts, int(sp.accepted))
		accepted += sp.accepted
		degrades += sp.degrades
		if rs.cfg.CollectValues {
			values = append(values, sp.values...)
		}
		if sp.sketch == nil {
			continue
		}
		if err := sketch.MergeScaled(merged, sp.sketch, rs.paneWeight(j, endT), rs.cfg.Builder); err != nil {
			return fmt.Errorf("stream: window %d pane merge: %w", k, err)
		}
		if rs.met != nil {
			rs.met.PaneMerges.Inc()
		}
	}
	if rs.met != nil {
		rs.met.WindowFires.Inc()
	}
	rs.fired++
	rs.sinceSnap++
	rs.emit(WindowResult{
		Index:         k,
		Start:         rs.paneSize * time.Duration(startPane),
		End:           endT,
		Sketch:        merged,
		Values:        values,
		Accepted:      accepted,
		PaneCounts:    paneCounts,
		Degradations:  degrades,
		AccuracyBound: accuracyBoundOf(merged),
	})
	// Evict panes below the next window's start — no remaining window
	// references them. After the last window everything goes.
	keep := rs.numPanes
	if k+1 < rs.cfg.NumWindows {
		keep = rs.paneStart(k + 1)
	}
	for j := range rs.sealed {
		if j < keep {
			delete(rs.sealed, j)
			rs.gov.Untrack(-1 - int64(j))
		}
	}
	if rs.met != nil {
		rs.met.PanesOpen.Set(int64(len(rs.open) + len(rs.sealed)))
	}
	return nil
}
