package moments

import (
	"math"

	"repro/internal/sketch"
)

var (
	_ sketch.CountScaler  = (*Sketch)(nil)
	_ sketch.ScaledMerger = (*Sketch)(nil)
)

// ScaleCount implements sketch.CountScaler exactly: every power sum
// Σ yⁱ is linear in the input multiset, so weighting each item by g is
// precisely multiplying each sum (including the count in powerSums[0])
// by g — no rounding, no structural change. The transformed-domain
// min/max stay as-is (the support of the decayed distribution is
// unchanged), and the cached max-entropy solution is discarded because
// the moment vector changed.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	for i := range s.powerSums {
		s.powerSums[i] *= g
	}
	s.discardWarmStarts()
}

// MergeScaled implements sketch.ScaledMerger: each power sum gains
// other's sum times g, rounded to float64 before the addition exactly
// as ScaleCount stores it in the reference path's clone (the explicit
// conversion forbids fusing the multiply into the add). For g ≤ 0 that
// clone is reset, and merging it adds +0 to every sum — which turns a
// -0 sum into +0 — and drops the cached solution, so this does too.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil {
		return err
	}
	if g <= 0 {
		for i := range s.powerSums {
			s.powerSums[i] += 0
		}
		s.solved = nil
		return nil
	}
	mergedCount := s.powerSums[0] + float64(o.powerSums[0]*g)
	for i := range s.powerSums {
		s.powerSums[i] += float64(o.powerSums[i] * g)
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.solved = nil
	s.assertCount("merge", mergedCount)
	return nil
}
