package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// QuantileSet answers a fixed list of exact quantile queries over one
// data set by selection instead of a full sort: a deterministic
// multi-select (three-way partitioning around a median-of-three pivot)
// puts only the queried order statistics in place, sorting a subrange
// once it is small or once the partition depth passes 2·log2(N). For
// every q of its list, Quantile returns exactly what
// ExactQuantiles.Quantile returns: the rank-ceil(qN) element.
type QuantileSet struct {
	qs      []float64
	answers []float64 // parallel to qs
}

// selectSortBelow is the subrange length below which multiSelect sorts
// instead of partitioning further.
const selectSortBelow = 16

// NewQuantileSet answers every q of qs over data, which it leaves
// untouched. It panics on empty data, mirroring NewExactQuantiles.
func NewQuantileSet(data, qs []float64) *QuantileSet {
	if len(data) == 0 {
		panic("stats: NewQuantileSet on empty data")
	}
	s := &QuantileSet{qs: slices.Clone(qs), answers: make([]float64, len(qs))}
	work := make([]float64, len(data))
	hasNaN := false
	for i, x := range data {
		work[i] = x
		if math.IsNaN(x) {
			hasNaN = true
		}
	}
	if hasNaN {
		// NaNs sort first under sort.Float64s but compare false with
		// everything; the sort is the definition, so defer to it.
		s.fromSort(data)
		return s
	}
	n := len(data)
	ranks := make([]int, len(qs)) // zero-based, parallel to qs
	for i, q := range qs {
		ranks[i] = quantileRank(q, n) - 1
	}
	ks := slices.Clone(ranks)
	slices.Sort(ks)
	ks = slices.Compact(ks)
	multiSelect(work, 0, n, ks, 2*bits.Len(uint(n)))
	for i, k := range ranks {
		s.answers[i] = work[k]
	}
	for _, v := range s.answers {
		if v == 0 && mixedZeros(work) {
			// -0 and +0 compare equal, so which of them sort.Float64s
			// leaves at a rank depends on its pivots: only the sort
			// itself reproduces the sign bit.
			s.fromSort(data)
			break
		}
	}
	return s
}

// fromSort fills the answers from a full ExactQuantiles sort of data.
func (s *QuantileSet) fromSort(data []float64) {
	e := NewExactQuantiles(data)
	for i, q := range s.qs {
		s.answers[i] = e.Quantile(q)
	}
}

// Quantile returns the exact q-quantile for a q of the set. It panics
// for any other q: the set keeps no data to answer it from.
func (s *QuantileSet) Quantile(q float64) float64 {
	for i, sq := range s.qs {
		if math.Float64bits(sq) == math.Float64bits(q) {
			return s.answers[i]
		}
	}
	panic(fmt.Sprintf("stats: QuantileSet.Quantile(%v): q is not in the set %v", q, s.qs))
}

// multiSelect permutes a[lo:hi] so that a[k] holds the element of
// zero-based rank k for every k of ks (ascending, distinct, within
// [lo, hi)), given that a[lo:hi] already holds exactly the elements of
// ranks lo..hi-1. Below selectSortBelow elements, or when depth runs
// out on adversarial input, it sorts the subrange instead.
func multiSelect(a []float64, lo, hi int, ks []int, depth int) {
	for len(ks) > 0 {
		if hi-lo < selectSortBelow || depth == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		depth--
		lt, gt := partition3(a, lo, hi)
		// Ranks in [lt, gt) hold the pivot value already.
		i := sort.SearchInts(ks, lt)
		j := sort.SearchInts(ks, gt)
		multiSelect(a, lo, lt, ks[:i], depth)
		lo, ks = gt, ks[j:]
	}
}

// partition3 partitions a[lo:hi] around the median of its first,
// middle and last elements into < pivot, == pivot and > pivot runs,
// returning the bounds [lt, gt) of the == run.
func partition3(a []float64, lo, hi int) (lt, gt int) {
	p := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
	lt, gt = lo, hi
	for i := lo; i < gt; {
		switch x := a[i]; {
		case x < p:
			a[lt], a[i] = x, a[lt]
			lt++
			i++
		case x > p:
			gt--
			a[i], a[gt] = a[gt], x
		default:
			i++
		}
	}
	return lt, gt
}

// median3 returns the median of three NaN-free values.
func median3(a, b, c float64) float64 {
	if b < a {
		a, b = b, a
	}
	if c < b {
		b = c
		if b < a {
			b = a
		}
	}
	return b
}

// mixedZeros reports whether xs holds both a -0 and a +0.
func mixedZeros(xs []float64) bool {
	neg, pos := false, false
	for _, x := range xs {
		if x == 0 {
			if math.Signbit(x) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return neg && pos
}
