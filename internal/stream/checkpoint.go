package stream

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/sketch"
)

// PanicError is the error an engine run returns when one of its
// goroutines panicked (an injected fault or a real bug): the run aborts
// but the process survives, and RunRecovering treats it as the signal
// that a restore-and-replay cycle is warranted.
type PanicError struct {
	// Worker is the panicking worker's index (0 is the engine goroutine
	// on the serial path), or -1 when unknown.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("stream: worker %d panicked: %v", e.Worker, e.Value)
}

// asPanicError converts a recovered panic value into a *PanicError,
// pulling the worker index out of injected faults.
func asPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	worker := -1
	if f, ok := r.(faultinject.Fault); ok {
		worker = f.Worker
	}
	return &PanicError{Worker: worker, Value: r, Stack: debug.Stack()}
}

// maybeSnapshot persists a checkpoint when the cadence says so. The
// drain loops pre-check sinceSnap >= snapEvery before calling, so with
// checkpointing disabled (snapEvery == math.MaxInt) the per-event cost
// is that one always-false inlined comparison, never a call.
func (rs *runState) maybeSnapshot() error {
	if rs.sinceSnap < rs.snapEvery {
		return nil
	}
	rs.sinceSnap = 0
	if rs.nextFire >= rs.cfg.NumWindows {
		// Every tracked window has fired; there is nothing left that a
		// resume could usefully replay.
		return nil
	}
	// seqSink cannot flush inside snapshot: the snapshot path is an
	// encode root that must stay pure, and the insert kernels are not.
	rs.sink.flush()
	return rs.snapshot()
}

// snapshot captures the full run state — counters, watermark, late-drop
// map, the in-flight delay heap verbatim, and every open window's
// engine-side state plus sealed per-partition sketch blobs — and puts
// it in the configured store under the fired-window sequence number.
func (rs *runState) snapshot() error {
	partials, err := rs.sink.snapshot()
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Seq:           rs.fired,
		SketchName:    rs.builderName,
		Drawn:         rs.drawn,
		Watermark:     int64(rs.watermark),
		NextFire:      int64(rs.nextFire),
		Generated:     rs.stats.Generated,
		Accepted:      rs.stats.Accepted,
		DroppedLate:   rs.stats.DroppedLate,
		RejectedInput: rs.stats.RejectedInput,
		ShedBudget:    rs.stats.ShedBudget,
	}
	lateWins := make([]int, 0, len(rs.lateOf))
	for wi := range rs.lateOf {
		lateWins = append(lateWins, wi)
	}
	sort.Ints(lateWins)
	for _, wi := range lateWins {
		snap.LateWindows = append(snap.LateWindows, int64(wi))
		snap.LateDrops = append(snap.LateDrops, rs.lateOf[wi])
	}
	// The heap's backing slice is stored verbatim: it is a valid binary
	// min-heap, so the restored engine adopts it without re-heapifying
	// and pops in the identical order.
	snap.InFlight = make([]checkpoint.Event, len(rs.inFlight.data))
	for i, ev := range rs.inFlight.data {
		snap.InFlight[i] = checkpoint.Event{
			Gen:       int64(ev.GenTime),
			Arrival:   int64(ev.Arrival),
			Value:     ev.Value,
			Partition: int64(ev.Partition),
		}
	}
	openWins := make([]int, 0, len(rs.open))
	for wi := range rs.open {
		openWins = append(openWins, wi)
	}
	sort.Ints(openWins)
	for _, wi := range openWins {
		w := rs.open[wi]
		ws := checkpoint.WindowSnap{Index: int64(wi), Accepted: w.accepted}
		if w.values != nil {
			ws.HasValues = true
			ws.Values = w.values
		}
		ws.Partials = partials[wi]
		snap.Windows = append(snap.Windows, ws)
	}
	if rs.paneMode {
		// Sealed panes ride in the optional trailer, ascending; the
		// Windows section above already holds the open panes (keyed by
		// pane index). nextSeal is not stored — every snapshot sits at
		// a post-fire drain point, so it is always paneEnd(nextFire-1)
		// and restore re-derives it.
		paneIdx := make([]int, 0, len(rs.sealed))
		for j := range rs.sealed {
			paneIdx = append(paneIdx, j)
		}
		sort.Ints(paneIdx)
		for _, j := range paneIdx {
			sp := rs.sealed[j]
			ps := checkpoint.PaneSnap{Index: int64(j), Accepted: sp.accepted}
			if sp.values != nil {
				ps.HasValues = true
				ps.Values = sp.values
			}
			if sp.sketch != nil {
				sealed, err := sealPartial(sp.sketch)
				if err != nil {
					return err
				}
				ps.Sketch = sealed
			}
			snap.Panes = append(snap.Panes, ps)
		}
	}
	data, err := checkpoint.EncodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("stream: checkpoint encode: %w", err)
	}
	if err := rs.cfg.CheckpointStore.Put(snap.Seq, data); err != nil {
		return fmt.Errorf("stream: checkpoint put: %w", err)
	}
	if rs.met != nil {
		rs.met.SnapshotsTaken.Inc()
		rs.met.SnapshotBytes.Add(int64(len(data)))
	}
	return nil
}

// restore rebuilds the run state from a decoded snapshot: counters and
// heap are adopted directly, partition sketches are unsealed and seeded
// into the sink, and the fresh sources are fast-forwarded to the
// checkpointed offset (events are a pure function of the seeds, so
// re-drawing reproduces the exact remaining stream).
func (rs *runState) restore(snap *checkpoint.Snapshot) error {
	cfg := rs.cfg
	if snap.SketchName != rs.builderName {
		return fmt.Errorf("stream: snapshot holds %q sketches, engine builds %q", snap.SketchName, rs.builderName)
	}
	if snap.Drawn < 0 || snap.NextFire < 0 || snap.NextFire > int64(cfg.NumWindows) {
		return fmt.Errorf("stream: snapshot state out of range for this config: %w", checkpoint.ErrCorrupt)
	}
	rs.drawn = snap.Drawn
	rs.fired = snap.Seq
	rs.watermark = time.Duration(snap.Watermark)
	rs.nextFire = int(snap.NextFire)
	rs.stats = Stats{
		Generated:     snap.Generated,
		Accepted:      snap.Accepted,
		DroppedLate:   snap.DroppedLate,
		RejectedInput: snap.RejectedInput,
		ShedBudget:    snap.ShedBudget,
	}
	for i := range snap.LateWindows {
		rs.lateOf[int(snap.LateWindows[i])] = snap.LateDrops[i]
	}
	rs.inFlight.data = make([]Event, len(snap.InFlight))
	for i, ev := range snap.InFlight {
		rs.inFlight.data[i] = Event{
			GenTime:   time.Duration(ev.Gen),
			Arrival:   time.Duration(ev.Arrival),
			Value:     ev.Value,
			Partition: int(ev.Partition),
		}
	}
	// In pane mode the Windows section holds open panes, so the index
	// bound is the pane count, not the window count.
	trackLimit := cfg.NumWindows
	if rs.paneMode {
		trackLimit = rs.numPanes
		if rs.nextFire > 0 {
			rs.nextSeal = rs.paneEnd(rs.nextFire - 1)
		}
	} else if len(snap.Panes) != 0 {
		return fmt.Errorf("stream: snapshot holds pane state but the engine is tumbling: %w", checkpoint.ErrCorrupt)
	}
	for i := range snap.Windows {
		ws := &snap.Windows[i]
		wi := int(ws.Index)
		if wi < 0 || wi >= trackLimit {
			return fmt.Errorf("stream: snapshot window %d out of range: %w", wi, checkpoint.ErrCorrupt)
		}
		w := &windowState{index: wi, accepted: ws.Accepted}
		if ws.HasValues {
			w.values = ws.Values
		}
		rs.open[wi] = w
		if len(ws.Partials) == 0 {
			continue
		}
		if len(ws.Partials) != cfg.Partitions {
			return fmt.Errorf("stream: snapshot window %d holds %d partitions, config has %d", wi, len(ws.Partials), cfg.Partitions)
		}
		parts := make([]sketch.Sketch, cfg.Partitions)
		for pi, blob := range ws.Partials {
			if blob == nil {
				continue
			}
			sk, err := decodePartial(cfg.Builder, rs.builderName, blob)
			if err != nil {
				return err
			}
			parts[pi] = sk
		}
		rs.sink.restore(wi, parts)
	}
	for i := range snap.Panes {
		ps := &snap.Panes[i]
		j := int(ps.Index)
		if j < 0 || j >= rs.numPanes || j >= rs.nextSeal {
			return fmt.Errorf("stream: snapshot pane %d out of range: %w", j, checkpoint.ErrCorrupt)
		}
		sp := &sealedPane{accepted: ps.Accepted}
		if ps.HasValues {
			sp.values = ps.Values
		}
		if ps.Sketch != nil {
			sk, err := decodePartial(cfg.Builder, rs.builderName, ps.Sketch)
			if err != nil {
				return err
			}
			sp.sketch = sk
			if rs.gov != nil {
				rs.gov.Track(-1-int64(j), sk)
			}
		}
		rs.sealed[j] = sp
	}
	for i := int64(0); i < snap.Drawn; i++ {
		rs.vals.Next()
		rs.delay.Delay()
	}
	if rs.met != nil {
		rs.met.Restores.Inc()
		rs.met.ReplayedEvents.Add(snap.Drawn)
	}
	return nil
}

// decodePartial opens one sealed partition-sketch envelope and decodes
// it into a fresh builder product.
func decodePartial(builder sketch.Builder, wantName string, blob []byte) (sketch.Sketch, error) {
	name, payload, err := checkpoint.Open(blob)
	if err != nil {
		return nil, fmt.Errorf("stream: partial envelope: %w", err)
	}
	if name != wantName {
		return nil, fmt.Errorf("stream: partial envelope holds %q, want %q: %w", name, wantName, checkpoint.ErrCorrupt)
	}
	sk := builder()
	if err := sk.UnmarshalBinary(payload); err != nil {
		return nil, fmt.Errorf("stream: partial decode: %w", err)
	}
	return sk, nil
}

// checkResumable validates that cfg can support checkpoint resume.
func checkResumable(cfg Config, op string) error {
	if cfg.CheckpointStore == nil {
		return fmt.Errorf("stream: %s requires Config.CheckpointStore", op)
	}
	if cfg.NewValues == nil {
		return fmt.Errorf("stream: %s requires Config.NewValues (sources are forward-only; recovery re-derives the stream from a fresh source)", op)
	}
	return nil
}

// Resume restores the newest valid snapshot in cfg.CheckpointStore and
// runs the job to completion from there, invoking emit for each window
// fired after the snapshot point. The resumed run's remaining output is
// bit-identical to what the interrupted run would have produced:
// windows already fired before the snapshot are not re-emitted, and the
// returned Stats cover the whole logical run (checkpointed counters
// plus the replayed remainder). Corrupt or truncated snapshots are
// skipped (newest first); if none is usable the error wraps
// checkpoint.ErrNoSnapshot.
func Resume(cfg Config, emit func(WindowResult)) (Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Stats{}, err
	}
	if err := checkResumable(e.cfg, "Resume"); err != nil {
		return Stats{}, err
	}
	stats, _, err := e.resumeRun(emit)
	return stats, err
}

func (e *Engine) resumeRun(emit func(WindowResult)) (Stats, map[int]int64, error) {
	snap, _, _, err := checkpoint.LatestValid(e.cfg.CheckpointStore)
	if err != nil {
		return Stats{}, nil, err
	}
	rs, err := e.newRunState(emit)
	if err != nil {
		return Stats{}, nil, err
	}
	defer rs.sink.close()
	if err := rs.restore(snap); err != nil {
		return Stats{}, nil, err
	}
	err = rs.loop()
	return rs.stats, rs.lateOf, err
}

// maxRecoveries bounds RunRecovering's restore-and-replay cycles; a
// fault plan is one-shot per fault, so any legitimate chaos run
// converges well below this.
const maxRecoveries = 8

// RunRecovering runs the job end-to-end with automatic crash recovery:
// when a run dies with a *PanicError (an injected fault or a worker
// bug), the newest valid checkpoint is restored and the run replayed
// from there — or restarted from scratch when no checkpoint was taken
// yet. Window results are collected by index, so a window re-fired
// after recovery simply overwrites its (bit-identical) first emission.
// Requires CheckpointStore and NewValues; per-window DroppedLate counts
// are patched in like RunCollect.
func RunRecovering(cfg Config) ([]WindowResult, Stats, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	cfg = e.cfg
	if err := checkResumable(cfg, "RunRecovering"); err != nil {
		return nil, Stats{}, err
	}
	results := make([]WindowResult, cfg.NumWindows)
	emitted := make([]bool, cfg.NumWindows)
	emit := func(r WindowResult) {
		if r.Index >= 0 && r.Index < cfg.NumWindows {
			results[r.Index] = r
			emitted[r.Index] = true
		}
	}
	recoveries := 0
	stats, lateOf, err := e.run(emit)
	for err != nil {
		var pe *PanicError
		if !errors.As(err, &pe) || recoveries >= maxRecoveries {
			return nil, Stats{}, err
		}
		recoveries++
		if met := cfg.Metrics; met != nil {
			met.RecoveredPanics.Inc()
		}
		stats, lateOf, err = e.resumeRun(emit)
		if errors.Is(err, checkpoint.ErrNoSnapshot) {
			// Crashed before the first checkpoint: replay from scratch.
			// One-shot fault semantics guarantee the restart does not
			// re-crash on the same event.
			stats, lateOf, err = e.run(emit)
		}
	}
	for i := range results {
		if !emitted[i] {
			return nil, Stats{}, fmt.Errorf("stream: window %d never fired", i)
		}
		results[i].DroppedLate = lateOf[i]
	}
	return results, stats, nil
}
