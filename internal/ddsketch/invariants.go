//go:build invariants

package ddsketch

import (
	"math"

	"repro/internal/invariant"
)

// assertInvariants re-verifies DDSketch's structural contracts:
//
//   - Bin-count conservation: each store's cached Total() must equal
//     the sum of its bucket counts (walked via ForEach), and no bucket
//     may hold a negative count — Count() and every rank computation
//     are derived from these totals. The store's NonEmptyBuckets count
//     must match the buckets ForEach visits.
//   - Non-negative zero counter.
//   - Ordered bounds: min ≤ max (both non-NaN) whenever non-empty.
func (s *Sketch) assertInvariants(op string) {
	checkStore := func(side string, st Store) {
		var sum int64
		live := 0
		st.ForEach(func(i int, c int64) bool {
			if c < 0 {
				invariant.Violationf("ddsketch", op, "%s store bucket %d has negative count %d", side, i, c)
			}
			sum += c
			live++
			return true
		})
		if sum != st.Total() {
			invariant.Violationf("ddsketch", op, "%s store total %d disagrees with bucket sum %d", side, st.Total(), sum)
		}
		if live != st.NonEmptyBuckets() {
			invariant.Violationf("ddsketch", op, "%s store reports %d non-empty buckets, holds %d", side, st.NonEmptyBuckets(), live)
		}
	}
	checkStore("positive", s.positive)
	checkStore("negative", s.negative)
	if s.zeroCnt < 0 {
		invariant.Violationf("ddsketch", op, "negative zero count %d", s.zeroCnt)
	}
	if s.Count() > 0 {
		if math.IsNaN(s.min) || math.IsNaN(s.max) || !(s.min <= s.max) {
			invariant.Violationf("ddsketch", op, "bounds broken: min %v, max %v with count %d", s.min, s.max, s.Count())
		}
	}
}

// assertCount verifies count conservation across a merge.
func (s *Sketch) assertCount(op string, want uint64) {
	if got := s.Count(); got != want {
		invariant.Violationf("ddsketch", op, "count conservation broken: got %d, want %d", got, want)
	}
	s.assertInvariants(op)
}
