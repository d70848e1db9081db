//go:build invariants

package uddsketch

import (
	"math"

	"repro/internal/invariant"
)

// assertInvariants re-verifies UDDSketch's contracts:
//
//   - Count conservation: each store's cached Total() equals the sum of
//     its bucket counts, so Count() (derived from the totals) matches
//     what the buckets hold; a drifting store would silently skew every
//     rank estimate.
//   - Bucket budget: at most maxBuckets live buckets after any
//     complete operation (uniform collapse enforces it).
//   - Positive bucket counts: neither insertion nor collapse can
//     produce an empty or negative bucket.
//   - Accuracy bookkeeping: α ∈ (0,1) and γ consistent with α.
//   - Ordered bounds: min ≤ max (non-NaN) whenever non-empty.
func (s *Sketch) assertInvariants(op string) {
	for side, st := range map[string]bucketStore{"positive": s.positive, "negative": s.negative} {
		var sum int64
		st.ForEachUnordered(func(i int, c int64) {
			if c <= 0 {
				invariant.Violationf("uddsketch", op, "%s bucket %d has non-positive count %d", side, i, c)
			}
			sum += c
		})
		if sum != st.Total() {
			invariant.Violationf("uddsketch", op, "%s store total %d disagrees with bucket sum %d", side, st.Total(), sum)
		}
	}
	if s.zeroCnt < 0 {
		invariant.Violationf("uddsketch", op, "negative zero count %d", s.zeroCnt)
	}
	if n := s.NonEmptyBuckets(); n > s.maxBuckets {
		invariant.Violationf("uddsketch", op, "bucket budget exceeded: %d live buckets, budget %d", n, s.maxBuckets)
	}
	if !(s.alpha > 0 && s.alpha < 1) {
		invariant.Violationf("uddsketch", op, "alpha %v outside (0,1) after %d collapses", s.alpha, s.collapses)
	}
	if g := (1 + s.alpha) / (1 - s.alpha); math.Abs(g-s.gamma) > 1e-9*g {
		invariant.Violationf("uddsketch", op, "gamma %v inconsistent with alpha %v (want %v)", s.gamma, s.alpha, g)
	}
	if s.Count() > 0 {
		if math.IsNaN(s.min) || math.IsNaN(s.max) || !(s.min <= s.max) {
			invariant.Violationf("uddsketch", op, "bounds broken: min %v, max %v with count %d", s.min, s.max, s.Count())
		}
	}
}

// assertCount verifies count conservation across a merge.
func (s *Sketch) assertCount(op string, want uint64) {
	if got := s.Count(); got != want {
		invariant.Violationf("uddsketch", op, "count conservation broken: got %d, want %d", got, want)
	}
	s.assertInvariants(op)
}
