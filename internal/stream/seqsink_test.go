package stream

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/datagen"
	"repro/internal/kll"
	"repro/internal/sketch"
	"repro/internal/uddsketch"
)

// scalarSink is the reference the batched seqSink is checked against:
// the same sink state, but every event goes into its partition sketch
// through scalar Insert the moment it is routed, so nothing is ever
// pending and flush has nothing to do.
type scalarSink struct{ *seqSink }

func (s scalarSink) insert(win, part int, v float64) {
	w := s.open[win]
	if w == nil {
		w = s.openWindow(win, make([]sketch.Sketch, s.partitions))
	}
	if w.sks[part] == nil {
		w.sks[part] = s.builder()
		s.gov.Track(s.govID(win, part), w.sks[part])
	}
	w.sks[part].Insert(v)
}

// recordingSink records every partition sketch's serialized state at
// its fire (or seal) barrier.
type recordingSink struct {
	partialSink
	t     *testing.T
	fired map[int][][]byte
}

func (r *recordingSink) partials(win int) ([]sketch.Sketch, int) {
	ps, deg := r.partialSink.partials(win)
	blobs := make([][]byte, len(ps))
	for part, sk := range ps {
		if sk != nil {
			blobs[part] = marshal(r.t, sk)
		}
	}
	r.fired[win] = blobs
	return ps, deg
}

// sinkRun is one serial engine run's observable output.
type sinkRun struct {
	fired   map[int][][]byte // partition sketches at their fire barrier
	results []WindowResult
	stats   Stats
}

// runSerial runs cfg (Workers must be 1) on the batched seqSink, or on
// scalarSink when scalar is set, recording partition sketches at every
// fire barrier. With restore non-nil the run resumes from it.
func runSerial(t *testing.T, cfg Config, scalar bool, restore *checkpoint.Snapshot) sinkRun {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := sinkRun{fired: map[int][][]byte{}}
	rs, err := e.newRunState(func(r WindowResult) { out.results = append(out.results, r) })
	if err != nil {
		t.Fatal(err)
	}
	var inner partialSink = rs.sink.(*seqSink)
	if scalar {
		inner = scalarSink{rs.sink.(*seqSink)}
	}
	rs.sink = &recordingSink{partialSink: inner, t: t, fired: out.fired}
	if restore != nil {
		if err := rs.restore(restore); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.loop(); err != nil {
		t.Fatal(err)
	}
	out.stats = rs.stats
	return out
}

// assertSameSinkRun fails unless got matches want partition sketch for
// partition sketch, window for window.
func assertSameSinkRun(t *testing.T, label string, got, want sinkRun) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("%s: stats %+v, want %+v", label, got.stats, want.stats)
	}
	if len(got.fired) != len(want.fired) {
		t.Fatalf("%s: %d fire barriers, want %d", label, len(got.fired), len(want.fired))
	}
	for win, wantBlobs := range want.fired {
		gotBlobs := got.fired[win]
		if len(gotBlobs) != len(wantBlobs) {
			t.Fatalf("%s window %d: %d partitions, want %d", label, win, len(gotBlobs), len(wantBlobs))
		}
		for part := range wantBlobs {
			if !bytes.Equal(gotBlobs[part], wantBlobs[part]) {
				t.Errorf("%s window %d partition %d: sketch differs from scalar inserts", label, win, part)
			}
		}
	}
	if len(got.results) != len(want.results) {
		t.Fatalf("%s: %d windows, want %d", label, len(got.results), len(want.results))
	}
	for i, w := range want.results {
		g := got.results[i]
		if g.Index != w.Index || g.Accepted != w.Accepted || g.Degradations != w.Degradations {
			t.Errorf("%s window %d: %+v, want %+v", label, w.Index, g, w)
		}
		if !bytes.Equal(marshal(t, g.Sketch), marshal(t, w.Sketch)) {
			t.Errorf("%s window %d: merged sketch differs", label, w.Index)
		}
	}
}

// seqSinkCfg runs partitions partitions at 1 event per ms with windows
// sized to give every partition perPart events a window. KLL makes the
// check strict: its compaction coin flips depend on the exact insert
// sequence.
func seqSinkCfg(perPart, partitions int, delay DelayModel) Config {
	return Config{
		WindowSize:    time.Duration(perPart*partitions) * time.Millisecond,
		Rate:          1000,
		NumWindows:    4,
		Partitions:    partitions,
		Values:        datagen.NewPareto(1, 1, 5),
		Delay:         delay,
		Builder:       func() sketch.Sketch { return kll.NewWithSeed(32, 7) },
		CollectValues: true,
	}
}

// TestSeqSinkMatchesScalarInserts: at every fire barrier each partition
// sketch of the batched serial sink is byte-identical to scalar inserts
// of the same events, with windows a batch short of, exactly, a batch
// over, and many batches per partition, with and without out-of-order
// arrivals (several windows open at once).
func TestSeqSinkMatchesScalarInserts(t *testing.T) {
	for _, perPart := range []int{seqBatch - 1, seqBatch, seqBatch + 1, 1000} {
		for _, delayed := range []bool{false, true} {
			t.Run(fmt.Sprintf("perPart=%d/delayed=%v", perPart, delayed), func(t *testing.T) {
				cfg := seqSinkCfg(perPart, 4, ZeroDelay{})
				refCfg := seqSinkCfg(perPart, 4, ZeroDelay{})
				if delayed {
					mean := cfg.WindowSize / 4
					cfg.Delay = NewExponentialDelay(mean, 9)
					refCfg.Delay = NewExponentialDelay(mean, 9)
				}
				got := runSerial(t, cfg, false, nil)
				want := runSerial(t, refCfg, true, nil)
				if !delayed {
					for _, r := range want.results {
						if r.Accepted != int64(perPart*cfg.Partitions) {
							t.Fatalf("window %d accepted %d events, want %d", r.Index, r.Accepted, perPart*cfg.Partitions)
						}
					}
				}
				assertSameSinkRun(t, "batched", got, want)
			})
		}
	}
}

// TestSeqSinkCheckpointResume: every checkpoint, each taken while
// windows are open (the next window's first events, and with delay
// the stragglers of the one after), holds exactly the scalar
// reference's partition sketches, and a run resumed from it fires
// partition sketches identical to the uninterrupted reference.
func TestSeqSinkCheckpointResume(t *testing.T) {
	for _, perPart := range []int{seqBatch - 1, seqBatch, seqBatch + 1, 1000} {
		t.Run(fmt.Sprintf("perPart=%d", perPart), func(t *testing.T) {
			newCfg := func() (Config, *checkpoint.MemStore) {
				cfg := seqSinkCfg(perPart, 4, nil)
				cfg.Values = nil
				cfg.NewValues = func() datagen.Source { return datagen.NewPareto(1, 1, 5) }
				mean := cfg.WindowSize / 4
				cfg.NewDelay = func() DelayModel { return NewExponentialDelay(mean, 9) }
				store := checkpoint.NewMemStore()
				cfg.CheckpointStore = store
				return cfg, store
			}
			cfg, store := newCfg()
			refCfg, refStore := newCfg()
			got := runSerial(t, cfg, false, nil)
			want := runSerial(t, refCfg, true, nil)
			assertSameSinkRun(t, "checkpointed", got, want)

			seqs, err := store.Seqs()
			if err != nil {
				t.Fatal(err)
			}
			refSeqs, err := refStore.Seqs()
			if err != nil {
				t.Fatal(err)
			}
			if len(seqs) == 0 || len(seqs) != len(refSeqs) {
				t.Fatalf("%d checkpoints, scalar reference %d", len(seqs), len(refSeqs))
			}
			for _, seq := range seqs {
				blob, err := store.Get(seq)
				if err != nil {
					t.Fatal(err)
				}
				refBlob, err := refStore.Get(seq)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, refBlob) {
					t.Fatalf("checkpoint %d differs from the scalar reference's", seq)
				}
				snap, err := checkpoint.DecodeSnapshot(blob)
				if err != nil {
					t.Fatal(err)
				}
				if len(snap.Windows) == 0 {
					t.Fatalf("checkpoint %d holds no open window; the test needs one", seq)
				}
				resumeCfg, _ := newCfg()
				resumed := runSerial(t, resumeCfg, false, snap)
				tail := sinkRun{fired: map[int][][]byte{}, stats: want.stats}
				for win, blobs := range want.fired {
					if win >= int(snap.NextFire) {
						tail.fired[win] = blobs
					}
				}
				tail.results = want.results[snap.NextFire:]
				assertSameSinkRun(t, fmt.Sprintf("resumed from %d", seq), resumed, tail)
			}
		})
	}
}

// TestSeqSinkBudgetDegrades: under a binding memory budget the
// governor degrades partition sketches mid-window; it must see them
// with every routed event applied, so degradations land at the same
// points and leave the same sketches as with scalar inserts. Sixteen
// partitions make windows long enough (16·perPart events) for the
// governor's 256-event cadence to fall inside them.
func TestSeqSinkBudgetDegrades(t *testing.T) {
	for _, perPart := range []int{seqBatch - 1, seqBatch, seqBatch + 1, 1000} {
		t.Run(fmt.Sprintf("perPart=%d", perPart), func(t *testing.T) {
			newCfg := func() Config {
				cfg := seqSinkCfg(perPart, 16, NewExponentialDelay(time.Duration(4*perPart)*time.Millisecond, 9))
				cfg.Builder = func() sketch.Sketch {
					s, err := uddsketch.NewWithBudget(0.05, 64, 12)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				// Values dense enough in the bucket lattice that even a
				// sketch of a few dozen events has adjacent buckets for a
				// collapse to merge.
				cfg.Values = datagen.NewUniform(1, 10, 21)
				cfg.MemoryBudget = 4 << 10
				return cfg
			}
			got := runSerial(t, newCfg(), false, nil)
			want := runSerial(t, newCfg(), true, nil)
			assertSameSinkRun(t, "budgeted", got, want)
			degraded := 0
			for _, r := range want.results {
				degraded += r.Degradations
			}
			if degraded == 0 {
				t.Fatal("the budget never degraded a sketch; retune the test")
			}
		})
	}
}

// countSketch is a sketch stub whose inserts allocate nothing, so an
// allocation count over seqSink measures the sink alone. Only the
// methods below are called; the embedded interface is nil.
type countSketch struct {
	sketch.Sketch
	n uint64
}

func (s *countSketch) Insert(float64)           { s.n++ }
func (s *countSketch) InsertBatch(xs []float64) { s.n += uint64(len(xs)) }
func (s *countSketch) Count() uint64            { return s.n }

// TestSeqSinkSteadyStateAllocs pins the batched sink's allocation
// contract: once warm, routing events (batch inserts included) and
// flushing allocate nothing, and a window's whole life — open, fill,
// flush, fire — allocates only the partition sketch slice handed to
// the caller and the sketches themselves; the pending buffers are
// recycled from fired windows.
func TestSeqSinkSteadyStateAllocs(t *testing.T) {
	const partitions = 4
	s := newSeqSink(func() sketch.Sketch { return &countSketch{} }, partitions, nil)
	win := 0
	cycle := func() {
		for i := 0; i < 1000; i++ {
			s.insert(win, i%partitions, float64(i))
		}
		s.flush()
		if ps, _ := s.partials(win); ps[0].Count() != 250 {
			t.Fatalf("partition 0 holds %d events, want 250", ps[0].Count())
		}
		win++
	}
	cycle() // warm: the first window allocates its buffers
	if avg := testing.AllocsPerRun(50, cycle); avg > 1+partitions {
		t.Errorf("a window cycle allocates %.1f times, want at most %d (sketch slice + sketches)", avg, 1+partitions)
	}
	s.insert(win, 0, 1) // open a window
	if avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 1000; i++ {
			s.insert(win, i%partitions, float64(i))
		}
		s.flush()
	}); avg > 0 {
		t.Errorf("routing 1000 events into an open window allocates %.1f times, want 0", avg)
	}
}
