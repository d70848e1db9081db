package stream

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/checkpoint"
	"repro/internal/concurrent"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/sketch"
)

// Config describes one streaming run: a source emitting Rate events/s for
// the run's duration, tumbling event-time windows of WindowSize, and a
// sketch under test.
type Config struct {
	// WindowSize is the tumbling window length (the study uses 20 s, with
	// 5 s and 10 s in the sensitivity analysis, Sec 4.7).
	WindowSize time.Duration
	// Slide, when in (0, WindowSize), switches the engine to sliding
	// windows of length WindowSize starting every Slide, computed by
	// pane-based sharing: events are inserted once into a sketch for
	// their non-overlapping pane of length gcd(WindowSize, Slide), and
	// each window is answered by merging its ~WindowSize/Slide
	// constituent panes instead of recomputing them. 0 (or Slide ==
	// WindowSize) keeps the tumbling fast path, bit-identical to before
	// the field existed. Window starts sit on the slide lattice; the
	// early windows whose nominal start precedes the stream origin are
	// emitted with Start clamped to 0, matching SlidingAssigner
	// (DESIGN.md §15). NumWindows counts emitted windows, so the run
	// spans (NumWindows-1)·Slide + WindowSize of event time. A pane is
	// sealed when the first window containing it fires; events arriving
	// for a sealed pane are dropped late from every remaining window
	// (the sharing trade-off, also §15).
	Slide time.Duration
	// DecayLambda, when positive, applies exponential time decay at
	// window assembly: each pane's sketch is down-weighted by
	// exp(-DecayLambda·age) before merging, where age is the gap in
	// seconds between the pane's end and the window's end (the newest
	// pane always has weight 1). Requires sliding mode (0 < Slide <
	// WindowSize) and a Builder whose product implements
	// sketch.CountScaler. Each older pane is folded in through
	// sketch.MergeScaled: a sketch.ScaledMerger kernel when the product
	// has one, otherwise a rescaled serde clone. Either way the pane
	// itself stays exact for later windows. 0 disables decay; a
	// DecayLambda of 0 is bit-identical to the undecayed sliding run.
	DecayLambda float64
	// Rate is the source's event rate in events per second (study: 50,000).
	Rate int
	// NumWindows is how many complete windows to run. The engine emits
	// exactly this many results; the source runs long enough to close the
	// final window.
	NumWindows int
	// Partitions is the number of partition-local sketches the stream is
	// split across; they are merged when a window fires. 1 disables
	// partitioning (a single sketch per window).
	Partitions int
	// Workers is the number of goroutines running the partition-local
	// sketch inserts. 0 or 1 runs everything on the caller's goroutine;
	// higher values consume fixed-size event batches over channels, with
	// windows fired at deterministic barrier points, so results are
	// bit-identical to the sequential path at any worker count. Workers
	// above Partitions are clamped (each partition is owned by exactly
	// one worker): the clamp increments Metrics.WorkersClamped and is
	// reported once per process on stderr, since a silently reduced
	// worker count is otherwise invisible to callers tuning parallelism.
	// Builder must be safe to call from multiple goroutines when
	// Workers > 1.
	Workers int
	// Values supplies the event payloads in generation order.
	Values datagen.Source
	// NewValues returns a fresh copy of the Values source, positioned at
	// its start. Sources are forward-only, so crash recovery re-derives
	// the event stream from a fresh source and fast-forwards it to the
	// checkpointed offset: Resume and RunRecovering require NewValues.
	// When set, every run draws from its own NewValues() result and
	// Values may be nil.
	NewValues func() datagen.Source
	// Delay is the network-delay model; nil means ZeroDelay.
	Delay DelayModel
	// NewDelay is NewValues for the delay model. Stateless models
	// (ZeroDelay, ConstantDelay) do not need it; a stateful model
	// (ExponentialDelay) must provide it for Resume to reproduce the
	// original delay sequence.
	NewDelay func() DelayModel
	// Builder constructs the sketch under test; one (per partition) per
	// window.
	Builder sketch.Builder
	// CollectValues materializes each window's accepted events in
	// WindowResult.Values so callers can compute exact ground truth.
	CollectValues bool
	// Metrics, when non-nil, receives engine-level counters (generated,
	// inserted, dropped-late, rejected, window fires, watermark lag,
	// batch-queue depth, checkpoint/restore activity) as the run
	// progresses. Counters accumulate across runs sharing the same
	// EngineMetrics. Nil disables recording at the cost of one
	// predictable branch per event.
	Metrics *obs.EngineMetrics
	// CheckpointStore, when non-nil, enables fault tolerance: the engine
	// persists a sealed snapshot of its full state (watermark, stats,
	// in-flight events, per-window × per-partition sketch blobs, source
	// offset) at window-fire barriers. Resume restores the newest valid
	// snapshot and replays the rest of the run bit-identically.
	CheckpointStore checkpoint.Store
	// CheckpointEvery is the snapshot cadence in fired windows; values
	// below 1 default to 1 (a snapshot after every fired window).
	CheckpointEvery int
	// Faults, when non-nil, injects the configured deterministic faults
	// (worker panics, partition stalls, duplicate batch deliveries) into
	// the run — see internal/faultinject. Nil costs one predictable
	// branch per event on the insert path.
	Faults *faultinject.Plan
	// MemoryBudget, when positive, caps the engine's live sketch
	// footprint (sketch.FootprintOf over every open partition sketch
	// and sealed pane) at roughly this many bytes, enforced by a
	// governor at deterministic points (every budget.BaseInterval
	// processed events while binding — backing off when slack — and at
	// fire barriers) through a three-rung
	// degradation ladder: (1) degrade the largest sketches in place
	// (sketch.Degrader — KLL/REQ shrink k, DDSketch folds its lowest
	// buckets, UDDSketch collapses uniformly), (2) in sliding mode,
	// coarsen the oldest sealed panes by merging them into their
	// successors early when every remaining window sees both, and
	// (3) as a last resort shed new events, counted in
	// Stats.ShedBudget — never a panic. Fired windows report the
	// degradations applied to their data and the resulting accuracy
	// bound (WindowResult.Degradations / AccuracyBound). With
	// Workers > 1 each worker governs its own partitions over an equal
	// share of the budget and only rung 1 runs there (no shedding), so
	// a budgeted parallel run stays deterministic for a fixed worker
	// count but is not bit-identical across worker counts the way
	// unbudgeted runs are. 0 disables the governor; the unbudgeted hot
	// path pays one predictable branch per event.
	MemoryBudget int
	// SharedSketch, when non-nil, additionally feeds every accepted
	// event into the given concurrent shared sketch, so live quantile
	// queries can be answered mid-window (and mid-run) through
	// SharedSketch.Snapshot() while the engine keeps inserting — the
	// windowed results above are unaffected. The serial path inserts
	// through writer handle 0 on the engine goroutine; with Workers > 1
	// each worker w inserts through handle w, so SharedSketch must have
	// NumWriters() >= the (clamped) worker count. Writer buffers are
	// flushed when the run completes (workers flush at shutdown), after
	// which the shared sketch reflects every accepted event of the run
	// exactly; snapshots taken mid-run may trail by at most
	// SharedSketch.MaxRelaxation() buffered events. The shared sketch
	// accumulates across all windows of the run and is NOT part of
	// checkpoints: a resumed run replays events into it, so pass a
	// fresh shared sketch per resumed run if its count must stay exact.
	SharedSketch concurrent.Shared
}

// WindowResult is the outcome of one fired tumbling window.
type WindowResult struct {
	// Index is the zero-based window sequence number.
	Index int
	// Start and End delimit the window's event-time range [Start, End).
	Start, End time.Duration
	// Sketch summarizes every accepted event (partition sketches merged).
	Sketch sketch.Sketch
	// Values holds the accepted events' payloads when
	// Config.CollectValues is set; nil otherwise.
	Values []float64
	// Accepted is the number of events included in the window.
	Accepted int64
	// DroppedLate is the number of events belonging to this window that
	// arrived after it fired and were discarded (Sec 2.6). Late events by
	// definition show up after the window has been emitted, so this field
	// is CONTRACTUALLY only populated by RunCollect, which patches the
	// collected results after the run completes; streaming Run callbacks
	// always observe 0 here, and the run-wide total lives in
	// Stats.DroppedLate either way. TestDroppedLateContract enforces
	// this.
	DroppedLate int64
	// PaneCounts, set only in sliding (pane-sharing) mode, holds the
	// accepted-event count of each constituent pane, oldest first — one
	// entry per pane of the window, zero for panes that saw no events.
	// With CollectValues set, Values is the concatenation of the panes'
	// values in the same order, so PaneCounts delimits the per-pane
	// segments: callers computing decayed ground truth weight segment i
	// by exp(-λ·(End - paneEnd_i)) where paneEnd_i is (i+1) pane
	// lengths after Start... precisely, the window's first pane ends at
	// End - (len(PaneCounts)-1)·paneLen and each later pane one paneLen
	// after, with paneLen = gcd(WindowSize, Slide). Budget coarsening
	// (Config.MemoryBudget rung 2) can fold a pane into its successor,
	// leaving a 0 entry whose events are counted one slot later.
	PaneCounts []int
	// Degradations counts the budget-governor degradations applied to
	// this window's data (its open partition sketches, and in sliding
	// mode its constituent sealed panes). Always 0 without
	// Config.MemoryBudget. Not persisted across checkpoint resume —
	// the degraded sketch state itself is exact in the snapshot, only
	// the count resets.
	Degradations int
	// AccuracyBound is the merged sketch's self-reported error bound
	// (sketch.AccuracyBounder: rank-error estimate for KLL/REQ,
	// relative α for DDSketch/UDDSketch) at fire time, which grows as
	// the budget governor degrades the sketch. 0 when the sketch does
	// not implement AccuracyBounder (moments).
	AccuracyBound float64
}

// Stats aggregates engine-level counters over one run. Every generated
// event is accounted for exactly once:
//
//	Generated == Accepted + DroppedLate + RejectedInput + ShedBudget
//
// holds on the serial, parallel and generic paths alike (enforced by
// TestStatsIdentity / TestParallelDrainLosesNothing), and survives a
// crash-and-resume cycle intact (TestCrashRecoveryDeterminism).
// ShedBudget is 0 without Config.MemoryBudget, reducing the identity
// to its historical three-term form.
type Stats struct {
	// Generated is the number of events the source produced within the
	// measured run (GenTime < NumWindows·WindowSize). Grace-period
	// events — generated past the final window boundary solely to push
	// the watermark across it — are excluded: they belong to no tracked
	// window and would otherwise skew LossRate.
	Generated int64
	// Accepted is the total number of events included in fired windows.
	Accepted int64
	// DroppedLate is the total number of late-dropped events.
	DroppedLate int64
	// RejectedInput is the total number of events whose payload was
	// invalid (NaN or ±Inf) and was discarded before reaching any
	// sketch. Rejected events still advance the watermark — their
	// timestamps are sound, only the payloads are not.
	RejectedInput int64
	// ShedBudget is the total number of valid, on-time events dropped
	// because Config.MemoryBudget was exhausted past every degradation
	// rung. Shed events still advance the watermark. Always 0 without
	// a budget, and on the parallel path (which degrades but never
	// sheds).
	ShedBudget int64
}

// LossRate returns the fraction of generated events dropped as late.
func (s Stats) LossRate() float64 {
	if s.Generated == 0 {
		return 0
	}
	return float64(s.DroppedLate) / float64(s.Generated)
}

// partialSink owns the per-window, per-partition sketches of a run. The
// engine drives it with the accepted-event stream in arrival order and
// collects each window's partials at its fire barrier. Implementations:
// seqSink (in-line inserts) and workerPool (batched inserts on worker
// goroutines). Both may hold accepted events back from the sketches:
// partials flushes the window it returns, and the engine calls flush
// before the other steps that read or measure them (checkpoint
// snapshots, budget passes).
type partialSink interface {
	// insert routes one accepted event to partition part of window win.
	insert(win, part int, v float64)
	// flush applies every event inserted so far to its partition
	// sketch (for workerPool: ships it to the owning worker, whose
	// channel orders it before any later barrier).
	flush()
	// partials returns window win's partition sketches, indexed by
	// partition (nil entries for partitions that saw no events), with
	// every insert for that window applied, plus the number of
	// budget degradations the sink applied to them (workerPool counts
	// its workers' in-sink degradations; seqSink reports 0 because the
	// engine's governor attributes serial degradations to windowState
	// directly). It is the fire barrier: the window's state is removed
	// from the sink.
	partials(win int) ([]sketch.Sketch, int)
	// snapshot returns, for every open window, one sealed checkpoint
	// envelope per partition holding that partition sketch's serialized
	// state (nil entries for partitions without a sketch). It is a
	// barrier: every insert flushed before the call is reflected.
	snapshot() (map[int][][]byte, error)
	// restore seeds window win's partition sketches from a decoded
	// snapshot. It must be called before any insert for that window.
	restore(win int, parts []sketch.Sketch)
	// err reports a failure captured inside the sink (a worker panic)
	// since the run began; the engine checks it at every fire barrier.
	err() error
	// close releases worker resources; the sink is unusable afterwards.
	close()
}

// seqBatch is how many accepted events seqSink holds per (window,
// partition) before inserting them through the sketch's batch kernel
// (sketch.InsertAll). The BatchInserter contract makes a batch
// indistinguishable from the same events inserted one at a time, so
// deferring them changes nothing as long as every reader of a sketch
// flushes first; 64 is enough to amortize the per-call dispatch and
// keeps the flush at a fire barrier to at most 63 events a partition.
const seqBatch = 64

// seqSink is the single-threaded partialSink: inserts run on the
// engine's goroutine, seqBatch events at a time. With a budget governor
// wired (gov non-nil) every partition sketch is tracked under the id
// win·partitions+part from creation to its fire barrier, so the
// engine's enforcement passes see the sink's full footprint.
type seqSink struct {
	builder    sketch.Builder
	partitions int
	open       map[int]*seqWindow
	free       []*seqWindow     // fired windows, pending buffers kept for reuse
	gov        *budget.Governor // nil without Config.MemoryBudget
}

// seqWindow is one open window's (or pane's) partition sketches and,
// per partition, its accepted events not yet inserted.
type seqWindow struct {
	sks     []sketch.Sketch
	pending [][]float64 // per partition, fewer than seqBatch between calls
}

func newSeqSink(builder sketch.Builder, partitions int, gov *budget.Governor) *seqSink {
	return &seqSink{builder: builder, partitions: partitions, open: make(map[int]*seqWindow), gov: gov}
}

// govID is the governor tracking id of (win, part): deterministic, so
// degradation order is reproducible run to run.
func (s *seqSink) govID(win, part int) int64 {
	return int64(win)*int64(s.partitions) + int64(part)
}

// openWindow starts window win's state, reusing a fired window's
// pending buffers when one is free. The sketch slice is always fresh:
// partials hands the previous one to the caller.
func (s *seqSink) openWindow(win int, sks []sketch.Sketch) *seqWindow {
	var w *seqWindow
	if n := len(s.free); n > 0 {
		w = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		w = &seqWindow{pending: make([][]float64, s.partitions)}
		for part := range w.pending {
			w.pending[part] = make([]float64, 0, seqBatch)
		}
	}
	w.sks = sks
	s.open[win] = w
	return w
}

func (s *seqSink) insert(win, part int, v float64) {
	w := s.open[win]
	if w == nil {
		w = s.openWindow(win, make([]sketch.Sketch, s.partitions))
	}
	if w.sks[part] == nil {
		w.sks[part] = s.builder()
		s.gov.Track(s.govID(win, part), w.sks[part])
	}
	buf := append(w.pending[part], v)
	if len(buf) == seqBatch {
		sketch.InsertAll(w.sks[part], buf)
		buf = buf[:0]
	}
	w.pending[part] = buf
}

// flush inserts every window's pending events. Windows are independent
// sketches, so the map's visiting order cannot show in any of them.
func (s *seqSink) flush() {
	for _, w := range s.open {
		w.flush()
	}
}

// flush inserts the window's pending events into its partition sketches.
func (w *seqWindow) flush() {
	for part, buf := range w.pending {
		if len(buf) > 0 {
			sketch.InsertAll(w.sks[part], buf)
			w.pending[part] = buf[:0]
		}
	}
}

func (s *seqSink) partials(win int) ([]sketch.Sketch, int) {
	w := s.open[win]
	if w == nil {
		return nil, 0
	}
	delete(s.open, win)
	w.flush()
	ps := w.sks
	w.sks = nil
	s.free = append(s.free, w)
	if s.gov != nil {
		for part := range ps {
			s.gov.Untrack(s.govID(win, part))
		}
	}
	return ps, 0
}

func (s *seqSink) snapshot() (map[int][][]byte, error) {
	// Seal windows in ascending index order: map-order iteration would
	// make the encode call sequence — and which window's failure is
	// reported when several seals error — depend on the iteration seed.
	wins := make([]int, 0, len(s.open))
	for win := range s.open {
		wins = append(wins, win)
	}
	sort.Ints(wins)
	out := make(map[int][][]byte, len(s.open))
	for _, win := range wins {
		blobs := make([][]byte, s.partitions)
		for part, sk := range s.open[win].sks {
			if sk == nil {
				continue
			}
			sealed, err := sealPartial(sk)
			if err != nil {
				return nil, err
			}
			blobs[part] = sealed
		}
		out[win] = blobs
	}
	return out, nil
}

func (s *seqSink) restore(win int, parts []sketch.Sketch) {
	s.openWindow(win, parts)
	if s.gov != nil {
		for part, sk := range parts {
			if sk != nil {
				s.gov.Track(s.govID(win, part), sk)
			}
		}
	}
}

func (s *seqSink) err() error { return nil }

func (s *seqSink) close() {}

// sealPartial serializes one partition sketch and wraps it in a named,
// checksummed checkpoint envelope.
func sealPartial(sk sketch.Sketch) ([]byte, error) {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("stream: snapshot partial: %w", err)
	}
	return checkpoint.Seal(sk.Name(), blob)
}

// windowState accumulates the engine-side counters of one open window;
// the partition sketches live in the partialSink.
type windowState struct {
	index    int
	values   []float64
	accepted int64
	degrades int // budget degradations applied to this window's sketches
}

// Engine runs a configured streaming job.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg and returns a runnable engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.WindowSize <= 0 {
		return nil, errors.New("stream: WindowSize must be positive")
	}
	if cfg.Rate <= 0 {
		return nil, errors.New("stream: Rate must be positive")
	}
	if cfg.NumWindows <= 0 {
		return nil, errors.New("stream: NumWindows must be positive")
	}
	if cfg.Slide < 0 || cfg.Slide > cfg.WindowSize {
		return nil, fmt.Errorf("stream: Slide %v outside (0, WindowSize=%v] (0 selects tumbling windows)", cfg.Slide, cfg.WindowSize)
	}
	if cfg.DecayLambda < 0 || math.IsNaN(cfg.DecayLambda) || math.IsInf(cfg.DecayLambda, 0) {
		return nil, errors.New("stream: DecayLambda must be finite and non-negative")
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Partitions {
		warnWorkersClamped(cfg.Workers, cfg.Partitions, cfg.Metrics)
		cfg.Workers = cfg.Partitions
	}
	if cfg.Values == nil && cfg.NewValues == nil {
		return nil, errors.New("stream: Values source (or NewValues factory) is required")
	}
	if cfg.SharedSketch != nil && cfg.SharedSketch.NumWriters() < cfg.Workers {
		return nil, fmt.Errorf("stream: SharedSketch has %d writer handles, need >= %d (one per worker)",
			cfg.SharedSketch.NumWriters(), cfg.Workers)
	}
	if cfg.Builder == nil {
		return nil, errors.New("stream: Builder is required")
	}
	if cfg.DecayLambda > 0 {
		if cfg.Slide == 0 || cfg.Slide == cfg.WindowSize {
			return nil, errors.New("stream: DecayLambda requires sliding mode (0 < Slide < WindowSize)")
		}
		probe := cfg.Builder()
		if _, ok := probe.(sketch.CountScaler); !ok {
			return nil, fmt.Errorf("stream: DecayLambda requires a sketch.CountScaler, %s does not implement it", probe.Name())
		}
	}
	if cfg.Delay == nil {
		cfg.Delay = ZeroDelay{}
	}
	if cfg.CheckpointStore != nil && cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 1
	}
	return &Engine{cfg: cfg}, nil
}

// workersClampedOnce gates the process-wide stderr notice about worker
// clamping; the obs counter records every clamped construction.
var workersClampedOnce sync.Once

// warnWorkersClamped records a Workers > Partitions clamp: the obs
// counter (when metrics are wired) on every occurrence, plus a one-time
// stderr notice so interactive callers tuning worker counts see why
// added workers change nothing.
func warnWorkersClamped(workers, partitions int, met *obs.EngineMetrics) {
	if met != nil {
		met.WorkersClamped.Inc()
	}
	workersClampedOnce.Do(func() {
		fmt.Fprintf(os.Stderr,
			"stream: Workers=%d exceeds Partitions=%d; clamping to %d (each partition is owned by exactly one worker — raise Partitions to use more workers)\n",
			workers, partitions, partitions)
	})
}

// Run executes the job, invoking emit for each fired window in order.
// Returns aggregate stats. The run generates events a little past the
// final window boundary so late stragglers of the last window are
// accounted and the window always fires.
func (e *Engine) Run(emit func(WindowResult)) (Stats, error) {
	stats, _, err := e.run(emit)
	return stats, err
}

func (e *Engine) run(emit func(WindowResult)) (Stats, map[int]int64, error) {
	rs, err := e.newRunState(emit)
	if err != nil {
		return Stats{}, nil, err
	}
	defer rs.sink.close()
	err = rs.loop()
	if rs.sharedW != nil {
		// Quiesce the serial path's shared writer so post-run snapshots
		// are exact. (Parallel-path writers flush at worker shutdown in
		// the deferred close.)
		rs.sharedW.Flush()
	}
	return rs.stats, rs.lateOf, err
}

// runState is one run's mutable state, factored out of the run loop so
// checkpoint restore can rebuild it mid-stream: a resumed run and an
// uninterrupted run traverse the identical state sequence from the
// snapshot point on.
type runState struct {
	cfg  Config
	emit func(WindowResult)
	met  *obs.EngineMetrics
	sink partialSink

	vals  datagen.Source
	delay DelayModel

	interval time.Duration
	runEnd   time.Duration
	genEnd   time.Duration

	stats     Stats
	inFlight  minHeap[Event]
	open      map[int]*windowState
	watermark time.Duration
	nextFire  int           // next window index to fire
	lateOf    map[int]int64 // window index → late drops (post-fire arrivals)

	// Pane-sharing sliding mode (0 < Slide < WindowSize). The open map
	// above is keyed by pane index instead of window index, and fired
	// windows are assembled from sealed panes (panes.go).
	paneMode    bool
	paneSize    time.Duration       // gcd(WindowSize, Slide)
	panesPerGap int                 // Slide / paneSize
	panesPerWin int                 // WindowSize / paneSize
	firstOff    int                 // 1 - ceil(WindowSize/Slide): slide-lattice offset of window 0
	numPanes    int                 // panes covering the run: paneEnd(NumWindows-1)
	nextSeal    int                 // first pane index not yet sealed
	sealed      map[int]*sealedPane // sealed, still-referenced panes

	drawn     int64  // source draws so far (event n was draw n, zero-based)
	fired     uint64 // windows fired so far (checkpoint sequence basis)
	sinceSnap int    // fires since the last snapshot
	snapEvery int    // snapshot cadence; math.MaxInt disables

	builderName string // cached Builder product name for envelopes

	serialFaults  *faultinject.Plan // non-nil only on the serial insert path
	serialInserts int64             // engine-goroutine ("worker 0") insert count
	partInserts   []int64           // per-partition insert counts (fault hooks)

	sharedW *concurrent.Writer // serial-path shared-sketch handle (writer 0)

	// Memory-budget governor state (Config.MemoryBudget). gov tracks
	// the serial sink's open sketches and, in pane mode, the sealed
	// pane sketches (under negative ids); with Workers > 1 the workers
	// govern their own sketches and gov covers only sealed panes.
	gov          *budget.Governor
	shedding     bool // rung 3 engaged: drop new events until under budget
	sinceEnforce int  // events processed since the last enforcement pass
	enforceAt    int  // cached gov.Interval(), refreshed by enforceBudget
}

func (e *Engine) newRunState(emit func(WindowResult)) (*runState, error) {
	cfg := e.cfg
	interval := time.Second / time.Duration(cfg.Rate)
	if interval <= 0 {
		return nil, fmt.Errorf("stream: rate %d too high for ns resolution", cfg.Rate)
	}
	runEnd := cfg.WindowSize * time.Duration(cfg.NumWindows)
	rs := &runState{
		cfg:      cfg,
		emit:     emit,
		met:      cfg.Metrics,
		vals:     cfg.Values,
		delay:    cfg.Delay,
		interval: interval,
		runEnd:   runEnd,
		// Grace period past the end so the final watermark passes runEnd:
		// one window of extra events (discarded, they belong to window
		// NumWindows) is plenty for realistic delay tails.
		genEnd:    runEnd + cfg.WindowSize,
		open:      map[int]*windowState{},
		watermark: -1,
		lateOf:    map[int]int64{},
		snapEvery: math.MaxInt,
	}
	if cfg.Slide > 0 && cfg.Slide < cfg.WindowSize {
		rs.initPanes()
	}
	if cfg.NewValues != nil {
		rs.vals = cfg.NewValues()
	}
	if cfg.NewDelay != nil {
		rs.delay = cfg.NewDelay()
	}
	if cfg.Workers > 1 {
		// Workers govern their own partitions over equal budget shares;
		// in pane mode half the budget is reserved for the coordinator's
		// sealed panes (which live outside the workers).
		workerBudget := cfg.MemoryBudget
		if workerBudget > 0 && rs.paneMode {
			workerBudget /= 2
		}
		rs.sink = newWorkerPool(cfg.Builder, cfg.Partitions, cfg.Workers, cfg.Metrics, cfg.Faults, cfg.SharedSketch, workerBudget)
		if rs.paneMode {
			rs.gov = budget.New(cfg.MemoryBudget / 2)
			rs.enforceAt = rs.gov.Interval()
		}
	} else {
		rs.gov = budget.New(cfg.MemoryBudget)
		rs.enforceAt = rs.gov.Interval()
		rs.sink = newSeqSink(cfg.Builder, cfg.Partitions, rs.gov)
		rs.serialFaults = cfg.Faults
		if cfg.SharedSketch != nil {
			rs.sharedW = cfg.SharedSketch.Writer(0)
		}
	}
	if rs.serialFaults != nil {
		rs.partInserts = make([]int64, cfg.Partitions)
	}
	if cfg.CheckpointStore != nil {
		rs.snapEvery = cfg.CheckpointEvery
		rs.builderName = cfg.Builder().Name()
	}
	return rs, nil
}

// fire merges window w's partition sketches and emits the result. It is
// the barrier at which worker failures surface and checkpoint cadence
// advances.
func (rs *runState) fire(w *windowState) error {
	merged := rs.cfg.Builder()
	parts, sinkDeg := rs.sink.partials(w.index)
	if err := rs.sink.err(); err != nil {
		return err
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := merged.Merge(p); err != nil {
			return fmt.Errorf("stream: window merge: %w", err)
		}
	}
	if rs.met != nil {
		rs.met.WindowFires.Inc()
	}
	rs.fired++
	rs.sinceSnap++
	rs.emit(WindowResult{
		Index:         w.index,
		Start:         rs.cfg.WindowSize * time.Duration(w.index),
		End:           rs.cfg.WindowSize * time.Duration(w.index+1),
		Sketch:        merged,
		Values:        w.values,
		Accepted:      w.accepted,
		Degradations:  w.degrades + sinkDeg,
		AccuracyBound: accuracyBoundOf(merged),
	})
	return nil
}

// accuracyBoundOf reads a sketch's self-reported error bound, 0 when
// the sketch type has none.
func accuracyBoundOf(sk sketch.Sketch) float64 {
	if ab, ok := sk.(sketch.AccuracyBounder); ok {
		return ab.AccuracyBound()
	}
	return 0
}

// process routes one arrived event: reject invalid payloads, drop late
// events, insert the rest, then advance the watermark and fire every
// window whose end it passed. Pane mode routes by pane instead of
// window (routePaned) but shares the watermark/fire machinery.
func (rs *runState) process(ev Event) error {
	cfg := &rs.cfg
	if rs.paneMode {
		rs.routePaned(ev)
	} else {
		rs.routeTumbling(ev)
	}
	if rs.gov != nil {
		rs.sinceEnforce++
		if rs.sinceEnforce >= rs.enforceAt {
			rs.enforceBudget()
		}
	}
	if ev.GenTime > rs.watermark {
		rs.watermark = ev.GenTime
		// Fire every window whose end the watermark has passed.
		fired := false
		for rs.nextFire < cfg.NumWindows && rs.watermark >= rs.windowEndTime(rs.nextFire) {
			if err := rs.fireNext(); err != nil {
				return err
			}
			fired = true
		}
		if fired && rs.gov != nil {
			// Fired windows untracked their sketches; re-evaluate so a
			// shedding engine recovers as soon as memory is released.
			rs.enforceBudget()
		}
	}
	if rs.met != nil {
		// How far arrival order ran ahead of event time: the delay
		// model's effective disorder, as seen by the engine.
		if lag := int64(ev.Arrival - rs.watermark); lag > 0 {
			rs.met.MaxWatermarkLagNS.Max(lag)
		}
	}
	return nil
}

// routeTumbling classifies one event on the tumbling path: reject,
// late-drop, or insert into its window.
func (rs *runState) routeTumbling(ev Event) {
	cfg := &rs.cfg
	wi := int(ev.GenTime / cfg.WindowSize)
	switch {
	case math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0):
		// Poisoned payload: rejected before reaching any sketch or
		// the collected values. The event still advances the
		// watermark in process — its timestamp is sound. Counted only
		// inside the measured run so the Stats identity stays exact.
		if wi >= 0 && wi < cfg.NumWindows {
			rs.stats.RejectedInput++
			if rs.met != nil {
				rs.met.RejectedInput.Inc()
			}
		}
	case wi < rs.nextFire:
		// Window already fired: late event, dropped. Its GenTime is
		// below the watermark by construction, so the watermark
		// advance in process is a no-op.
		if wi >= 0 && wi < cfg.NumWindows {
			rs.lateOf[wi]++
			rs.stats.DroppedLate++
			if rs.met != nil {
				rs.met.DroppedLate.Inc()
			}
		}
	case wi < cfg.NumWindows:
		if rs.shedding {
			// Budget exhausted past every degradation rung: the event is
			// shed, counted, and still advances the watermark in process.
			rs.stats.ShedBudget++
			if rs.met != nil {
				rs.met.BudgetShed.Inc()
			}
			return
		}
		w := rs.open[wi]
		if w == nil {
			w = &windowState{index: wi}
			rs.open[wi] = w
		}
		part := ev.Partition % cfg.Partitions
		if rs.serialFaults != nil {
			rs.serialFaults.OnEvent(0, part, rs.serialInserts, rs.partInserts[part])
			rs.serialInserts++
			rs.partInserts[part]++
		}
		rs.sink.insert(wi, part, ev.Value)
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

// windowEndTime is the event time at which window k fires.
func (rs *runState) windowEndTime(k int) time.Duration {
	if rs.paneMode {
		return rs.paneSize * time.Duration(rs.paneEnd(k))
	}
	return rs.cfg.WindowSize * time.Duration(k+1)
}

// fireNext fires window nextFire via the mode's fire path and advances
// nextFire.
func (rs *runState) fireNext() error {
	if rs.paneMode {
		if err := rs.firePaned(rs.nextFire); err != nil {
			return err
		}
		rs.nextFire++
		return nil
	}
	w := rs.open[rs.nextFire]
	if w == nil {
		w = &windowState{index: rs.nextFire}
	}
	delete(rs.open, rs.nextFire)
	// Late counts accrue after firing; the final accounting picks them
	// up via lateOf.
	if err := rs.fire(w); err != nil {
		return err
	}
	rs.nextFire++
	return nil
}

// drain processes every in-flight event that has arrived by gen. Any
// event generated later arrives at ≥ its own gen time ≥ gen, so
// everything in flight with arrival ≤ gen is safe to process.
func (rs *runState) drain(gen time.Duration) error {
	for rs.inFlight.Len() > 0 && rs.inFlight.Min().Arrival <= gen {
		if err := rs.process(rs.inFlight.Pop()); err != nil {
			return err
		}
		if rs.sinceSnap >= rs.snapEvery {
			if err := rs.maybeSnapshot(); err != nil {
				return err
			}
		}
	}
	return nil
}

// loop is the run driver: generate, drain, fire, until the source is
// exhausted and every tracked window has fired. On a resumed state
// (drawn > 0) it first finishes the arrival drain the snapshot
// interrupted, then continues generating from the checkpointed source
// offset — the exact state sequence of an uninterrupted run. Panics on
// the engine goroutine (including injected faults on the serial insert
// path) are converted into a *PanicError result.
func (rs *runState) loop() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = asPanicError(r)
		}
	}()
	cfg := rs.cfg
	if rs.drawn > 0 {
		if err := rs.drain(rs.interval * time.Duration(rs.drawn-1)); err != nil {
			return err
		}
	}
	part := int(rs.drawn % int64(cfg.Partitions))
	for gen := rs.interval * time.Duration(rs.drawn); gen < rs.genEnd; gen += rs.interval {
		v := rs.vals.Next()
		d := rs.delay.Delay()
		if gen < rs.runEnd {
			// Grace-period events (gen ≥ runEnd) exist only to push the
			// watermark past the final boundary; they belong to no
			// tracked window and are excluded from the accounting so
			// Generated == Accepted + DroppedLate + RejectedInput holds
			// exactly.
			rs.stats.Generated++
			if rs.met != nil {
				rs.met.Generated.Inc()
			}
		}
		rs.drawn++
		rs.inFlight.Push(Event{GenTime: gen, Arrival: gen + d, Value: v, Partition: part})
		part++
		if part == cfg.Partitions {
			part = 0
		}
		if err := rs.drain(gen); err != nil {
			return err
		}
	}
	for rs.inFlight.Len() > 0 {
		if err := rs.process(rs.inFlight.Pop()); err != nil {
			return err
		}
		if rs.sinceSnap >= rs.snapEvery {
			if err := rs.maybeSnapshot(); err != nil {
				return err
			}
		}
	}
	// Fire any windows still open (source exhausted before watermark
	// passed their end — only possible for the final window on extreme
	// delays).
	for rs.nextFire < cfg.NumWindows {
		if err := rs.fireNext(); err != nil {
			return err
		}
	}
	return nil
}

// RunCollect is Run but returning the window results as a slice, with
// per-window late-drop counts filled in after the run completes.
func (e *Engine) RunCollect() ([]WindowResult, Stats, error) {
	var out []WindowResult
	stats, lateOf, err := e.run(func(r WindowResult) { out = append(out, r) })
	for i := range out {
		out[i].DroppedLate = lateOf[out[i].Index]
	}
	return out, stats, err
}
