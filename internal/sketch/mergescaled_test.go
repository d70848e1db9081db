// Equivalence tests for the ScaledMerger contract: a native
// MergeScaled(other, g) kernel must be indistinguishable from the
// MergeScaled helper's reference path (serde clone, ScaleCount(g),
// Merge) — the same bytes, sizes, bound and answers right after the
// merge and after further inserts — and must leave other untouched.
package sketch_test

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/uddsketch"
)

// scaledCases lists every ScaledMerger, in configurations small enough
// that random states compact, collapse and degrade: KLL and REQ at
// small k, DDSketch on each store kind, UDDSketch with a 64-bucket
// budget on the map and the dense store, and Moments. Moments runs in
// the log domain, where the max-entropy solve stays fast over the
// states' wide magnitude spreads; its kernel's arithmetic does not
// depend on the transform.
var scaledCases = []struct {
	name  string
	fresh sketch.Builder
}{
	{"kll", func() sketch.Sketch { return kll.NewWithSeed(32, 7) }},
	{"req", func() sketch.Sketch { return req.NewWithSeed(8, true, 7) }},
	{"ddsketch", func() sketch.Sketch { return ddsketch.New(0.01) }},
	{"ddsketch-paginated", func() sketch.Sketch { return ddsketch.NewPaginated(0.01) }},
	{"ddsketch-collapse", func() sketch.Sketch { return ddsketch.NewCollapsing(0.01, 48) }},
	{"uddsketch", func() sketch.Sketch {
		s, err := uddsketch.NewWithBudget(0.01, 64, 6)
		if err != nil {
			panic(err)
		}
		return s
	}},
	{"uddsketch-dense", func() sketch.Sketch {
		s, err := uddsketch.NewArrayWithBudget(0.01, 64, 6)
		if err != nil {
			panic(err)
		}
		return s
	}},
	{"moments", func() sketch.Sketch { return moments.NewWithTransform(12, moments.TransformLog) }},
}

// scaledQs is the study's quantile grid.
var scaledQs = []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99}

// serdePath hides a receiver's ScaledMerger kernel behind the plain
// Sketch method set, so sketch.MergeScaled takes its reference path.
type serdePath struct{ sketch.Sketch }

// scaledState builds a random sketch from seed: empty, tiny or up to
// 3000 values of both signs and zeros over a random magnitude spread,
// inserted in batches, then up to three Degrade steps and sometimes a
// ScaleCount. The same seed always builds the same sketch, with the
// same slice capacities, which a serde copy would not keep.
func scaledState(fresh sketch.Builder, seed uint64) sketch.Sketch {
	r := rand.New(rand.NewPCG(seed, 0x5ca1ed))
	s := fresh()
	var n int
	switch r.IntN(6) {
	case 0:
	case 1:
		n = 1 + r.IntN(3)
	default:
		n = r.IntN(3000)
	}
	spread := []float64{0.5, 2, 6}[r.IntN(3)]
	xs := make([]float64, n)
	for i := range xs {
		x := math.Exp(r.NormFloat64() * spread)
		switch u := r.Float64(); {
		case u < 0.05:
			x = 0
		case u < 0.25:
			x = -x
		}
		xs[i] = x
	}
	sketch.InsertAll(s, xs)
	if d, ok := s.(sketch.Degrader); ok {
		for k := r.IntN(4); k > 0; k-- {
			_, _ = d.Degrade() // ErrNotDegradable leaves the sketch as it is
		}
	}
	if r.IntN(4) == 0 {
		s.(sketch.CountScaler).ScaleCount(r.Float64())
	}
	return s
}

// sameState fails unless a and b agree on everything the ScaledMerger
// contract names: serialized bytes, Count, Footprint, MemoryBytes,
// AccuracyBound and the study quantiles, bit for bit.
func sameState(t *testing.T, stage string, a, b sketch.Sketch) {
	t.Helper()
	if !bytes.Equal(marshalSk(t, a), marshalSk(t, b)) {
		t.Fatalf("%s: serialized state differs from the reference path", stage)
	}
	if a.Count() != b.Count() {
		t.Fatalf("%s: count %d, reference %d", stage, a.Count(), b.Count())
	}
	if fa, fb := sketch.FootprintOf(a), sketch.FootprintOf(b); fa != fb {
		t.Fatalf("%s: footprint %d, reference %d", stage, fa, fb)
	}
	if ma, mb := a.MemoryBytes(), b.MemoryBytes(); ma != mb {
		t.Fatalf("%s: MemoryBytes %d, reference %d", stage, ma, mb)
	}
	if ab, ok := a.(sketch.AccuracyBounder); ok {
		if x, y := ab.AccuracyBound(), b.(sketch.AccuracyBounder).AccuracyBound(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: AccuracyBound %v, reference %v", stage, x, y)
		}
	}
	qa, errA := sketch.Quantiles(a, scaledQs)
	qb, errB := sketch.Quantiles(b, scaledQs)
	if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
		t.Fatalf("%s: query error %v, reference %v", stage, errA, errB)
	}
	for i := range qa {
		if math.Float64bits(qa[i]) != math.Float64bits(qb[i]) {
			t.Fatalf("%s: q=%v: %v, reference %v", stage, scaledQs[i], qa[i], qb[i])
		}
	}
}

// checkMergeScaled merges the sketch built from srcSeed, scaled by g,
// into two receivers built from dstSeed — one through the kernel, one
// through the reference path — and requires identical outcomes, before
// and after 500 further inserts, with the source unchanged.
func checkMergeScaled(t *testing.T, fresh sketch.Builder, dstSeed, srcSeed uint64, g float64) {
	t.Helper()
	kernel, ref := scaledState(fresh, dstSeed), scaledState(fresh, dstSeed)
	src := scaledState(fresh, srcSeed)
	srcBlob := marshalSk(t, src)
	srcFoot := sketch.FootprintOf(src)
	errK := kernel.(sketch.ScaledMerger).MergeScaled(src, g)
	errR := sketch.MergeScaled(serdePath{ref}, src, g, fresh)
	if (errK == nil) != (errR == nil) {
		t.Fatalf("g=%v: kernel error %v, reference error %v", g, errK, errR)
	}
	if !bytes.Equal(marshalSk(t, src), srcBlob) || sketch.FootprintOf(src) != srcFoot {
		t.Fatalf("g=%v: MergeScaled modified its source", g)
	}
	sameState(t, "after merge", kernel, ref)
	r := rand.New(rand.NewPCG(dstSeed^srcSeed, 500))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Exp(r.NormFloat64() * 3)
	}
	sketch.InsertAll(kernel, xs)
	sketch.InsertAll(ref, xs)
	sameState(t, "after 500 more inserts", kernel, ref)
}

// TestMergeScaledEquivalence runs every ScaledMerger over random
// receiver and source states at weights covering every clamp: a tiny g
// that rounds every count away, random g, 0.5, 0.999, 0, −1, 1 and NaN.
// For UDDSketch it requires every collapse order — receiver less, more
// and equally collapsed — and the rounded-away source that must not
// collapse a less collapsed receiver.
func TestMergeScaledEquivalence(t *testing.T) {
	const trials = 40
	for ci, c := range scaledCases {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(uint64(ci), 77))
			var less, more, equal, skipped int
			for trial := 0; trial < trials; trial++ {
				dstSeed, srcSeed := r.Uint64(), r.Uint64()
				if u, ok := scaledState(c.fresh, dstSeed).(*uddsketch.Sketch); ok {
					v := scaledState(c.fresh, srcSeed).(*uddsketch.Sketch)
					switch {
					case u.Collapses() < v.Collapses():
						less++
						if v.Count() > 0 {
							skipped++
						}
					case u.Collapses() > v.Collapses():
						more++
					default:
						equal++
					}
				}
				for _, g := range []float64{1e-12, r.Float64(), r.Float64(), 0.5, 0.999, 0, -1, 1, math.NaN()} {
					checkMergeScaled(t, c.fresh, dstSeed, srcSeed, g)
				}
			}
			if _, ok := c.fresh().(*uddsketch.Sketch); ok {
				if less == 0 || more == 0 || equal == 0 || skipped == 0 {
					t.Errorf("collapse orders not all covered: receiver less %d, more %d, equal %d; rounded-away source above the receiver %d",
						less, more, equal, skipped)
				}
			}
		})
	}
}

// TestMergeScaledIncompatible requires the kernel and the reference
// path to both refuse a source of another sketch type, at every clamp.
func TestMergeScaledIncompatible(t *testing.T) {
	for i, c := range scaledCases {
		other := scaledCases[(i+len(scaledCases)/2)%len(scaledCases)]
		src := scaledState(other.fresh, 3)
		for _, g := range []float64{0.5, 0, -1, 1} {
			kernel, ref := scaledState(c.fresh, 5), scaledState(c.fresh, 5)
			errK := kernel.(sketch.ScaledMerger).MergeScaled(src, g)
			errR := sketch.MergeScaled(serdePath{ref}, src, g, c.fresh)
			if errK == nil || errR == nil {
				t.Errorf("%s <- %s, g=%v: kernel error %v, reference error %v; want both to refuse",
					c.name, other.name, g, errK, errR)
			}
		}
	}
}

// TestMergeScaledMomentsNegativeZero pins the g ≤ 0 corner of the
// Moments kernel: the reference path merges an emptied clone, which
// adds +0 to every power sum and so turns a −0 sum into +0.
func TestMergeScaledMomentsNegativeZero(t *testing.T) {
	fresh := func() sketch.Sketch { return moments.New(12) }
	build := func() sketch.Sketch {
		s := fresh()
		s.Insert(-5e-324)
		s.(sketch.CountScaler).ScaleCount(0.4) // −5e-324·0.4 rounds to −0
		return s
	}
	if ps := build().(*moments.Sketch).PowerSums(); !math.Signbit(ps[1]) || ps[1] != 0 {
		t.Fatalf("setup: first power sum %v, want -0", ps[1])
	}
	src := scaledState(fresh, 9)
	for _, g := range []float64{0, -1} {
		kernel, ref := build(), build()
		if err := kernel.(sketch.ScaledMerger).MergeScaled(src, g); err != nil {
			t.Fatal(err)
		}
		if err := sketch.MergeScaled(serdePath{ref}, src, g, fresh); err != nil {
			t.Fatal(err)
		}
		sameState(t, "g <= 0", kernel, ref)
	}
}

// FuzzMergeScaled searches for receiver/source seeds and a weight on
// which a kernel and the reference path disagree.
func FuzzMergeScaled(f *testing.F) {
	for i := range scaledCases {
		for _, g := range []float64{1e-12, 0.3, 0.5, 0.999, 0, -1, 1, math.NaN(), math.Inf(-1), 5e-324} {
			f.Add(uint8(i), uint64(i)*7+1, uint64(i)*13+2, g)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, dstSeed, srcSeed uint64, g float64) {
		c := scaledCases[int(which)%len(scaledCases)]
		checkMergeScaled(t, c.fresh, dstSeed, srcSeed, g)
	})
}
