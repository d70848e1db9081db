package ddsketch

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestSketchWithSparseStore(t *testing.T) {
	s, err := NewWithStore(0.01, func() Store { return NewSparseStore() })
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	data := make([]float64, 50000)
	for i := range data {
		data[i] = math.Exp(rng.NormFloat64() * 2)
		s.Insert(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		truth := exactQuantile(data, q)
		est, err := s.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(truth, est); re > 0.01*(1+1e-9) {
			t.Errorf("q=%v: rel err %v with sparse store", q, re)
		}
	}
	// Sparse store memory scales with non-empty buckets only.
	if s.MemoryBytes() > 8*(3*s.NonEmptyBuckets()+20) {
		t.Errorf("sparse memory %d for %d buckets", s.MemoryBytes(), s.NonEmptyBuckets())
	}
}

func TestSparseStoreReset(t *testing.T) {
	st := NewSparseStore()
	st.Add(1, 5)
	st.Reset()
	if !st.IsEmpty() || st.NonEmptyBuckets() != 0 {
		t.Error("reset left state")
	}
}

func TestDenseStoreCloneIndependence(t *testing.T) {
	st := NewDenseStore()
	st.Add(10, 3)
	cl := st.Clone()
	st.Add(20, 4)
	if cl.Total() != 3 {
		t.Errorf("clone total %d, want 3", cl.Total())
	}
	if st.Total() != 7 {
		t.Errorf("original total %d, want 7", st.Total())
	}
}

func TestCollapsingCloneAndReset(t *testing.T) {
	st := NewCollapsingLowestDenseStore(16)
	for i := 0; i < 100; i++ {
		st.Add(i, 1)
	}
	if st.CollapseCount() == 0 {
		t.Fatal("expected collapses")
	}
	cl := st.Clone().(*CollapsingLowestDenseStore)
	if cl.MaxBuckets() != 16 || cl.Total() != st.Total() {
		t.Error("clone mismatch")
	}
	st.Reset()
	if !st.IsEmpty() || st.CollapseCount() != 0 {
		t.Error("reset left state")
	}
	if st.MaxBuckets() != 16 {
		t.Error("reset lost configuration")
	}
}

func TestNegativeRankQueries(t *testing.T) {
	s := New(0.01)
	for i := 1; i <= 1000; i++ {
		s.Insert(-float64(i))
		s.Insert(float64(i))
	}
	// Rank of a negative value: fraction ≤ -500 is ≈ 500/2000 = 0.25.
	r, err := s.Rank(-500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-0.25) > 0.02 {
		t.Errorf("Rank(-500) = %v, want ≈ 0.25", r)
	}
	r, _ = s.Rank(0)
	if math.Abs(r-0.5) > 0.02 {
		t.Errorf("Rank(0) = %v, want ≈ 0.5", r)
	}
	// Quantile deep in the negative range.
	est, err := s.Quantile(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(-800, est); re > 0.02 {
		t.Errorf("q=0.1 = %v, want ≈ -800", est)
	}
}

func TestZeroOnlyStream(t *testing.T) {
	s := New(0.01)
	for i := 0; i < 100; i++ {
		s.Insert(0)
	}
	v, err := s.Quantile(0.5)
	if err != nil || v != 0 {
		t.Errorf("all-zero median = %v, %v", v, err)
	}
	r, err := s.Rank(0)
	if err != nil || r != 1 {
		t.Errorf("Rank(0) = %v, %v", r, err)
	}
}

func TestMappingBounds(t *testing.T) {
	m, _ := NewMapping(0.01)
	// LowerBound/UpperBound bracket Value.
	for _, i := range []int{-100, -1, 0, 1, 100} {
		lo, hi, v := m.LowerBound(i), m.UpperBound(i), m.Value(i)
		if !(v > lo && v <= hi) {
			t.Errorf("bucket %d: value %v outside (%v, %v]", i, v, lo, hi)
		}
	}
	if m.MinIndexableValue() <= 0 {
		t.Error("MinIndexableValue must be positive")
	}
}

// TestDenseStoreLiveCount pins the O(1) NonEmptyBuckets counter against
// a ForEach count after every operation that can change it.
func TestDenseStoreLiveCount(t *testing.T) {
	check := func(tag string, st Store) {
		t.Helper()
		n := 0
		st.ForEach(func(int, int64) bool { n++; return true })
		if got := st.NonEmptyBuckets(); got != n {
			t.Fatalf("%s: NonEmptyBuckets = %d, ForEach counts %d", tag, got, n)
		}
	}
	rng := rand.New(rand.NewPCG(3, 5))
	st := NewDenseStore()
	check("empty", st)
	for i := 0; i < 500; i++ {
		st.Add(rng.IntN(300)-150, int64(1+rng.IntN(3)))
	}
	check("Add", st)
	idx := make([]int, 400)
	for i := range idx {
		idx[i] = rng.IntN(900) - 450
	}
	st.AddOnes(idx)
	check("AddOnes", st)
	cl := st.Clone()
	check("Clone", cl)
	for k := 0; k < 4; k++ {
		st.CollapseUniform()
		check("CollapseUniform", st)
	}
	check("Clone after original collapsed", cl)
	st.Reset()
	check("Reset", st)

	cs := NewCollapsingLowestDenseStore(32)
	for i := 0; i < 2000; i++ {
		cs.Add(rng.IntN(200)-20+i/10, 1)
	}
	if cs.CollapseCount() == 0 {
		t.Fatal("collapsing store never collapsed")
	}
	check("collapseLowestTo", cs)
	cs.AddOnes(idx)
	check("collapsing AddOnes", cs)
	check("collapsing Clone", cs.Clone())
	cs.Reset()
	check("collapsing Reset", cs)
}
