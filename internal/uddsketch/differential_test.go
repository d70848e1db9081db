package uddsketch

import (
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/sketch"
)

// TestMapDenseDifferential drives a map-store and a dense-store sketch
// through the same operations and requires bit-identical answers after
// each: the store is a layout choice, never an accuracy one.
func TestMapDenseDifferential(t *testing.T) {
	streams := map[string]func(*rand.Rand) float64{
		"positive": func(r *rand.Rand) float64 { return math.Exp(r.Float64()*30 - 15) },
		"negative": func(r *rand.Rand) float64 { return -math.Exp(r.Float64()*30 - 15) },
		"zero": func(r *rand.Rand) float64 {
			return []float64{0, math.Copysign(0, -1), 1e-310, -1e-310}[r.IntN(4)]
		},
		"mixed": func(r *rand.Rand) float64 {
			x := math.Exp(r.Float64()*30 - 15)
			switch r.IntN(10) {
			case 0:
				return 0
			case 1, 2, 3:
				return -x
			}
			return x
		},
	}
	for _, legacy := range []bool{false, true} {
		indexer := "cubic"
		if legacy {
			indexer = "log"
		}
		for name, gen := range streams {
			t.Run(indexer+"/"+name, func(t *testing.T) {
				mk := func(k storeKind) *Sketch {
					s := k.mustNew(t, 1e-3, 64)
					if legacy {
						s.UseLegacyLogIndexer()
					}
					return s
				}
				rng := rand.New(rand.NewPCG(7, 11))
				data := make([]float64, 6000)
				for i := range data {
					data[i] = gen(rng)
				}
				data[4321] = math.NaN()
				wide := make([]float64, 3000)
				for i := range wide {
					wide[i] = streams["mixed"](rng) * 1e3
				}
				m, d := mk(storeKinds[0]), mk(storeKinds[1])
				step := func(op string, f func(s *Sketch, k storeKind)) {
					t.Helper()
					f(m, storeKinds[0])
					f(d, storeKinds[1])
					compareSketches(t, op, m, d)
				}
				step("Insert", func(s *Sketch, _ storeKind) {
					for _, x := range data[:2000] {
						s.Insert(x)
					}
				})
				step("InsertN", func(s *Sketch, _ storeKind) {
					for i, x := range data[2000:2200] {
						s.InsertN(x, uint64(1+i%7))
					}
				})
				step("InsertBatch", func(s *Sketch, _ storeKind) { s.InsertBatch(data[2200:]) })
				step("Merge more-collapsed", func(s *Sketch, k storeKind) {
					o := mk(k)
					o.InsertBatch(wide)
					for o.Collapses() <= s.Collapses() {
						o.uniformCollapse()
					}
					mergeChecked(t, s, o)
				})
				step("Merge less-collapsed", func(s *Sketch, k storeKind) {
					o := mk(k)
					for i := 0; i < 50; i++ {
						o.Insert(1 + 1e-3*float64(i))
						o.Insert(-2 - 1e-3*float64(i))
					}
					if o.Collapses() >= s.Collapses() {
						t.Fatalf("setup: argument has %d collapses, receiver %d", o.Collapses(), s.Collapses())
					}
					mergeChecked(t, s, o)
				})
				step("Degrade", func(s *Sketch, _ storeKind) {
					if _, err := s.Degrade(); err != nil {
						t.Fatalf("Degrade: %v", err)
					}
				})
				step("ScaleCount", func(s *Sketch, _ storeKind) { s.ScaleCount(0.37) })
				step("serde", func(s *Sketch, _ storeKind) {
					blob, err := s.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					var r Sketch
					if err := r.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
					if r.dense != s.dense || r.indexer != s.indexer {
						t.Fatalf("round trip changed store/indexer kind")
					}
					*s = r
				})
			})
		}
	}
}

func mergeChecked(t *testing.T, s, o *Sketch) {
	t.Helper()
	want := s.Count() + o.Count()
	oc, ocount := o.Collapses(), o.Count()
	if err := s.Merge(o); err != nil {
		t.Fatal(err)
	}
	if s.Count() != want || o.Collapses() != oc || o.Count() != ocount {
		t.Fatalf("merge: count %d (want %d), argument mutated %v", s.Count(), want, o.Collapses() != oc || o.Count() != ocount)
	}
}

// compareSketches requires bit-identical state and answers.
func compareSketches(t *testing.T, op string, m, d *Sketch) {
	t.Helper()
	if m.Count() != d.Count() || m.Collapses() != d.Collapses() ||
		math.Float64bits(m.AccuracyBound()) != math.Float64bits(d.AccuracyBound()) {
		t.Fatalf("%s: count %d/%d collapses %d/%d bound %v/%v", op, m.Count(), d.Count(),
			m.Collapses(), d.Collapses(), m.AccuracyBound(), d.AccuracyBound())
	}
	bucketsEqual(t, op+" positive", m.positive, d.positive)
	bucketsEqual(t, op+" negative", m.negative, d.negative)
	qs := []float64{1e-4, 0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 0.9999, 1}
	if m.Count() == 0 {
		_, errM := m.Quantile(0.5)
		_, errD := d.Quantile(0.5)
		if !errors.Is(errM, sketch.ErrEmpty) || !errors.Is(errD, sketch.ErrEmpty) {
			t.Fatalf("%s: empty Quantile errors %v / %v", op, errM, errD)
		}
		return
	}
	allM, err1 := m.QuantileAll(qs)
	allD, err2 := d.QuantileAll(qs)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: QuantileAll: %v / %v", op, err1, err2)
	}
	for i, q := range qs {
		vm, _ := m.Quantile(q)
		vd, _ := d.Quantile(q)
		if math.Float64bits(vm) != math.Float64bits(vd) || math.Float64bits(allM[i]) != math.Float64bits(allD[i]) {
			t.Fatalf("%s: q=%v: Quantile %v/%v QuantileAll %v/%v", op, q, vm, vd, allM[i], allD[i])
		}
		if math.Float64bits(vm) != math.Float64bits(allM[i]) {
			t.Fatalf("%s: q=%v: Quantile %v disagrees with QuantileAll %v", op, q, vm, allM[i])
		}
	}
	for _, x := range []float64{-1e9, -5, -1, -1e-3, 0, 1e-3, 1, 5, 1e9, allM[3], allM[8]} {
		rm, _ := m.Rank(x)
		rd, _ := d.Rank(x)
		if math.Float64bits(rm) != math.Float64bits(rd) {
			t.Fatalf("%s: Rank(%v) %v vs %v", op, x, rm, rd)
		}
	}
}

// pinnedEnvelope was written by the map-store sketch before it moved
// onto the ddsketch stores: New(0.05, 12) fed pinnedInputs, which forces
// 3 uniform collapses under the cubic indexer.
const pinnedEnvelope = "04029a9999999999a93f0c0000000300008002000000000000001400000000000000" +
	"00000000000044c0000000000000624008000000000000000000000002000000000000" +
	"000100000000000000040000000000000002000000000000000100000000000000030000" +
	"000000000002000000000000000400000000000000020000000000000005000000000000" +
	"000100000000000000060000000000000002000000000000000700000000000000010000" +
	"000000000003000000ffffffffffffffff01000000000000000200000000000000010000" +
	"000000000005000000000000000100000000000000"

var pinnedInputs = []float64{-40, -3.5, -0.25, 0, 0, 0.5, 1, 1.1, 1.25, 1.5, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}

// TestPinnedEnvelope: an envelope from before the store refactor decodes
// to the quantiles it answered when written, re-encodes to the same
// bytes, and is what the same inserts produce today.
func TestPinnedEnvelope(t *testing.T) {
	blob, err := hex.DecodeString(pinnedEnvelope)
	if err != nil {
		t.Fatal(err)
	}
	var s Sketch
	if err := s.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 20 || s.Collapses() != 3 || s.dense || s.indexer != indexerCubic {
		t.Fatalf("decoded count %d collapses %d dense %v indexer %d", s.Count(), s.Collapses(), s.dense, s.indexer)
	}
	want := map[float64]float64{
		0.01: -0x1.0680622330382p+05,
		0.1:  -0x1.857f434744392p+01,
		0.25: 0,
		0.5:  0x1.60840677f3b84p+00,
		0.75: 0x1.db101d6533e41p+03,
		0.9:  0x1.223d251d271ebp+06,
		0.99: 144,
		1:    144,
	}
	for q, w := range want {
		if got, _ := s.Quantile(q); math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("q=%v: %v, written as %v", q, got, w)
		}
	}
	again, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(again) != pinnedEnvelope {
		t.Errorf("re-encoding changed the envelope:\n got %x", again)
	}
	fresh := New(0.05, 12)
	for _, x := range pinnedInputs {
		fresh.Insert(x)
	}
	if now, _ := fresh.MarshalBinary(); hex.EncodeToString(now) != pinnedEnvelope {
		t.Errorf("the same inserts now encode differently:\n got %x", now)
	}
}

// TestQuantileExtremeMagnitudes: a bucket whose upper bound overflows
// float64 must not turn the estimate into NaN; the clamp pins it to the
// observed max (or min, mirrored).
func TestQuantileExtremeMagnitudes(t *testing.T) {
	for _, k := range storeKinds {
		for _, tc := range []struct {
			xs   []float64
			q    float64
			want float64
		}{
			{[]float64{math.MaxFloat64, 1}, 1, math.MaxFloat64},
			{[]float64{-math.MaxFloat64, 1}, 0.5, -math.MaxFloat64},
			{[]float64{math.Inf(1), 1}, 1, math.Inf(1)},
			{[]float64{math.Inf(-1), 1}, 0.5, math.Inf(-1)},
		} {
			s := k.mustNew(t, 0.01, 1024)
			for _, x := range tc.xs {
				s.Insert(x)
			}
			if got, err := s.Quantile(tc.q); err != nil || got != tc.want {
				t.Errorf("%s %v: Quantile(%v) = %v, %v; want %v", k.name, tc.xs, tc.q, got, err, tc.want)
			}
		}
	}
}
