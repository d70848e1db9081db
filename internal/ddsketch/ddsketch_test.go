package ddsketch

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/sketch"
)

func exactQuantile(sorted []float64, q float64) float64 {
	idx := int(math.Ceil(q * float64(len(sorted))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

func relErr(truth, est float64) float64 {
	if truth == 0 {
		return math.Abs(est)
	}
	return math.Abs(truth-est) / math.Abs(truth)
}

func TestMappingIndexBrackets(t *testing.T) {
	m, err := NewMapping(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Gamma(), (1+0.01)/(1-0.01); math.Abs(got-want) > 1e-12 {
		t.Fatalf("gamma = %v, want %v", got, want)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		x := math.Exp(rng.Float64()*40 - 20) // e^-20 .. e^20
		idx := m.Index(x)
		lo, hi := m.LowerBound(idx), m.UpperBound(idx)
		if !(x > lo*(1-1e-12) && x <= hi*(1+1e-12)) {
			t.Fatalf("x=%v not in bucket %d (%v, %v]", x, idx, lo, hi)
		}
		if re := relErr(x, m.Value(idx)); re > m.Alpha()*(1+1e-9) {
			t.Fatalf("bucket midpoint rel err %v > alpha for x=%v", re, x)
		}
	}
}

func TestMappingInvalidAlpha(t *testing.T) {
	for _, a := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NewMapping(a); err == nil {
			t.Errorf("NewMapping(%v) should fail", a)
		}
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(0.01)
	if _, err := s.Quantile(0.5); err != sketch.ErrEmpty {
		t.Errorf("Quantile on empty: got %v, want ErrEmpty", err)
	}
	if _, err := s.Rank(1); err != sketch.ErrEmpty {
		t.Errorf("Rank on empty: got %v, want ErrEmpty", err)
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d, want 0", s.Count())
	}
}

func TestInvalidQuantile(t *testing.T) {
	s := New(0.01)
	s.Insert(1)
	for _, q := range []float64{0, -0.1, 1.1, math.NaN()} {
		if _, err := s.Quantile(q); err == nil {
			t.Errorf("Quantile(%v) should fail", q)
		}
	}
}

// The headline property: every quantile estimate is within alpha relative
// error, for data spanning several orders of magnitude.
func TestRelativeErrorGuarantee(t *testing.T) {
	for _, alpha := range []float64{0.001, 0.01, 0.05} {
		s := New(alpha)
		rng := rand.New(rand.NewPCG(42, 43))
		data := make([]float64, 100000)
		for i := range data {
			// Pareto-ish long tail.
			data[i] = 1 / math.Pow(1-rng.Float64(), 1.3)
			s.Insert(data[i])
		}
		sort.Float64s(data)
		for _, q := range []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
			truth := exactQuantile(data, q)
			est, err := s.Quantile(q)
			if err != nil {
				t.Fatalf("alpha=%v q=%v: %v", alpha, q, err)
			}
			if re := relErr(truth, est); re > alpha*(1+1e-9) {
				t.Errorf("alpha=%v q=%v: rel err %v > alpha (truth=%v est=%v)", alpha, q, re, truth, est)
			}
		}
	}
}

func TestNegativeAndZeroValues(t *testing.T) {
	s := New(0.01)
	data := []float64{-100, -10, -1, 0, 0, 1, 10, 100, 1000}
	for _, x := range data {
		s.Insert(x)
	}
	if s.Count() != uint64(len(data)) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(data))
	}
	// Median (5th of 9) is 0 exactly.
	got, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("median = %v, want 0", got)
	}
	// Lowest quantile is near -100.
	lo, _ := s.Quantile(0.12) // rank ceil(0.12*9)=2 → -10
	if re := relErr(-10, lo); re > 0.01 {
		t.Errorf("q=0.12 = %v, want ≈ -10", lo)
	}
	q1, _ := s.Quantile(1)
	if re := relErr(1000, q1); re > 0.01 {
		t.Errorf("q=1 = %v, want ≈ 1000", q1)
	}
}

func TestRankConsistency(t *testing.T) {
	s := New(0.01)
	rng := rand.New(rand.NewPCG(7, 8))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = rng.Float64() * 1000
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		x := exactQuantile(data, q)
		r, err := s.Rank(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-q) > 0.02 {
			t.Errorf("Rank(%v) = %v, want ≈ %v", x, r, q)
		}
	}
}

func TestMergeMatchesUnion(t *testing.T) {
	a, b := New(0.01), New(0.01)
	union := New(0.01)
	rng := rand.New(rand.NewPCG(11, 12))
	var all []float64
	for i := 0; i < 30000; i++ {
		x := math.Exp(rng.NormFloat64() * 3)
		all = append(all, x)
		if i%2 == 0 {
			a.Insert(x)
		} else {
			b.Insert(x)
		}
		union.Insert(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != union.Count() {
		t.Fatalf("merged count %d != union count %d", a.Count(), union.Count())
	}
	sort.Float64s(all)
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		truth := exactQuantile(all, q)
		got, err := a.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		// Merged sketch retains the full alpha guarantee.
		if re := relErr(truth, got); re > 0.01*(1+1e-9) {
			t.Errorf("q=%v: merged rel err %v > alpha", q, re)
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a, b := New(0.01), New(0.02)
	a.Insert(1)
	b.Insert(2)
	if err := a.Merge(b); err == nil {
		t.Error("merging different alphas should fail")
	}
}

func TestCollapsingStoreBoundsBuckets(t *testing.T) {
	s := NewCollapsing(0.01, 128)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200000; i++ {
		s.Insert(math.Exp(rng.Float64()*20 - 10)) // huge range
	}
	if n := s.NonEmptyBuckets(); n > 128 {
		t.Errorf("collapsing store holds %d buckets, want <= 128", n)
	}
	if s.CollapseCount() == 0 {
		t.Error("expected at least one collapse on wide-range data")
	}
	// Upper quantiles keep the guarantee (only low buckets collapse).
	var data []float64
	rng = rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200000; i++ {
		data = append(data, math.Exp(rng.Float64()*20-10))
	}
	sort.Float64s(data)
	for _, q := range []float64{0.9, 0.95, 0.99} {
		truth := exactQuantile(data, q)
		got, _ := s.Quantile(q)
		if re := relErr(truth, got); re > 0.01*(1+1e-9) {
			t.Errorf("q=%v: rel err %v > alpha after collapses", q, re)
		}
	}
}

func TestSerdeRoundTrip(t *testing.T) {
	s := New(0.01)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 10000; i++ {
		s.Insert(rng.NormFloat64() * 100) // includes negatives
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Sketch
	if err := d.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if d.Count() != s.Count() {
		t.Fatalf("count %d != %d", d.Count(), s.Count())
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		a, _ := s.Quantile(q)
		b, _ := d.Quantile(q)
		if a != b {
			t.Errorf("q=%v: %v != %v after round trip", q, a, b)
		}
	}
}

func TestSerdeCorrupt(t *testing.T) {
	s := New(0.01)
	s.Insert(1)
	blob, _ := s.MarshalBinary()
	var d Sketch
	if err := d.UnmarshalBinary(blob[:len(blob)-3]); err == nil {
		t.Error("truncated blob should fail")
	}
	if err := d.UnmarshalBinary(append(blob, 0)); err == nil {
		t.Error("trailing garbage should fail")
	}
	blob[0] = 0xFF
	if err := d.UnmarshalBinary(blob); err == nil {
		t.Error("wrong tag should fail")
	}
}

func TestReset(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 100; i++ {
		s.Insert(float64(i))
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after reset = %d", s.Count())
	}
	s.Insert(42)
	got, err := s.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(42, got); re > 0.01 {
		t.Errorf("median after reset+insert = %v, want ≈ 42", got)
	}
}

// Property: for any positive data set, every quantile estimate is within
// alpha relative error of the exact quantile.
func TestQuickRelativeError(t *testing.T) {
	f := func(vals []uint32, qFrac uint16) bool {
		if len(vals) == 0 {
			return true
		}
		s := New(0.01)
		data := make([]float64, len(vals))
		for i, v := range vals {
			data[i] = float64(v)/1e3 + 0.001 // positive, wide range
			s.Insert(data[i])
		}
		sort.Float64s(data)
		q := (float64(qFrac) + 1) / 65537 // (0,1)
		truth := exactQuantile(data, q)
		est, err := s.Quantile(q)
		if err != nil {
			return false
		}
		return relErr(truth, est) <= 0.01*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: merge is count-preserving and order-insensitive for counts.
func TestQuickMergeCounts(t *testing.T) {
	f := func(a, b []float32) bool {
		s1, s2 := New(0.02), New(0.02)
		for _, v := range a {
			s1.Insert(float64(v))
		}
		for _, v := range b {
			s2.Insert(float64(v))
		}
		want := s1.Count() + s2.Count()
		if err := s1.Merge(s2); err != nil {
			return false
		}
		return s1.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStoreGrowthCoversRange(t *testing.T) {
	st := NewDenseStore()
	st.Add(1000, 1)
	st.Add(-1000, 2)
	st.Add(0, 3)
	if st.Total() != 6 {
		t.Fatalf("total = %d", st.Total())
	}
	if st.MinIndex() != -1000 || st.MaxIndex() != 1000 {
		t.Fatalf("range [%d,%d]", st.MinIndex(), st.MaxIndex())
	}
	var visited []int
	st.ForEach(func(i int, c int64) bool {
		visited = append(visited, i)
		return true
	})
	if len(visited) != 3 || visited[0] != -1000 || visited[2] != 1000 {
		t.Fatalf("ForEach order: %v", visited)
	}
}

func TestSparseStore(t *testing.T) {
	st := NewSparseStore()
	st.Add(5, 2)
	st.Add(-3, 1)
	st.Add(5, 1)
	if st.Total() != 4 || st.NonEmptyBuckets() != 2 {
		t.Fatalf("total=%d buckets=%d", st.Total(), st.NonEmptyBuckets())
	}
	if st.MinIndex() != -3 || st.MaxIndex() != 5 {
		t.Fatalf("range [%d,%d]", st.MinIndex(), st.MaxIndex())
	}
	cl := st.Clone()
	st.Add(7, 1)
	if cl.Total() != 4 {
		t.Error("clone shares state with original")
	}
}

// TestQuantileExtremeMagnitudes: a bucket whose upper bound overflows
// float64 must not turn the estimate into NaN; the clamp pins it to the
// observed max (or min, mirrored).
func TestQuantileExtremeMagnitudes(t *testing.T) {
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
		for _, mk := range []func() *Sketch{
			func() *Sketch { return New(0.01) },
			func() *Sketch {
				m, _ := NewLinearMapping(0.01)
				s, _ := NewWithMapping(m, func() Store { return NewDenseStore() })
				return s
			},
		} {
			s := mk()
			for _, x := range tc.xs {
				s.Insert(x)
			}
			got, err := s.Quantile(tc.q)
			if err != nil || got != tc.want {
				t.Errorf("%v Quantile(%v) = %v, %v; want %v", tc.xs, tc.q, got, err, tc.want)
			}
			all, err := s.QuantileAll([]float64{tc.q})
			if err != nil || all[0] != tc.want {
				t.Errorf("%v QuantileAll(%v) = %v, %v; want %v", tc.xs, tc.q, all, err, tc.want)
			}
		}
	}
}
