package uddsketch

import (
	"math"

	"repro/internal/sketch"
)

var _ sketch.CountScaler = (*Sketch)(nil)

// ScaleCount implements sketch.CountScaler by rounded bucket scaling:
// every bucket count c becomes round(c·g) (buckets rounding to 0 are
// dropped — valid sketches never hold empty buckets), and the zero
// counter scales the same way; Count() is derived from the parts, so
// it stays exact. Each bucket transforms independently of every other,
// so the result does not depend on the walk's order. Scaling only
// removes buckets, so the maxBuckets budget and the current collapse
// level are untouched; min/max are kept as conservative bounds. If
// every count rounds away the sketch resets.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	type bucket struct {
		index int
		count int64
	}
	for _, st := range []bucketStore{s.positive, s.negative} {
		scaled := make([]bucket, 0, st.NonEmptyBuckets())
		st.ForEachUnordered(func(i int, c int64) {
			scaled = append(scaled, bucket{i, int64(math.Round(float64(c) * g))})
		})
		// Refill in place: a reset map store keeps its capacity.
		st.Reset()
		for _, b := range scaled {
			st.Add(b.index, b.count) // Add drops counts ≤ 0
		}
	}
	s.zeroCnt = int64(math.Round(float64(s.zeroCnt) * g))
	if s.Count() == 0 {
		s.Reset()
	}
}
