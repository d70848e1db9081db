package uddsketch

import (
	"math"

	"repro/internal/sketch"
)

var (
	_ sketch.CountScaler  = (*Sketch)(nil)
	_ sketch.ScaledMerger = (*Sketch)(nil)
)

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
			scaled = append(scaled, bucket{i, scaleCount(c, g)})
		})
		// Refill in place: a reset map store keeps its capacity.
		st.Reset()
		for _, b := range scaled {
			st.Add(b.index, b.count) // Add drops counts ≤ 0
		}
	}
	s.zeroCnt = scaleCount(s.zeroCnt, g)
	if s.Count() == 0 {
		s.Reset()
	}
}

// scaleCount is ScaleCount's rounding of one count, round(c·g); g = 1
// (Merge's fold) passes c through exactly.
func scaleCount(c int64, g float64) int64 {
	if g == 1 {
		return c
	}
	return int64(math.Round(float64(c) * g))
}

// MergeScaled implements sketch.ScaledMerger: Merge's fold with every
// source count c entering as round(c·g), rounded before any folding,
// just as ScaleCount rounds the reference path's clone before Merge
// collapses it. When every count, the zero count included, rounds to 0,
// ScaleCount would reset that clone and merging it would change
// nothing, so the receiver is left as it is — in particular not
// collapsed up to the source.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil {
		return err
	}
	if g <= 0 || s.collapses < o.collapses && !o.survivesScale(g) {
		return nil
	}
	s.fold(o, g)
	return nil
}

// survivesScale reports whether any of s's counts, the zero count
// included, stays positive under scaleCount(·, g). Rounding is
// monotone, so the largest count decides.
func (s *Sketch) survivesScale(g float64) bool {
	top := s.zeroCnt
	for _, st := range []bucketStore{s.positive, s.negative} {
		st.ForEachUnordered(func(_ int, c int64) { top = max(top, c) })
	}
	return scaleCount(top, g) > 0
}
