package ddsketch

import (
	"math"

	"repro/internal/sketch"
)

var (
	_ sketch.CountScaler  = (*Sketch)(nil)
	_ sketch.ScaledMerger = (*Sketch)(nil)
)

// ScaleCount implements sketch.CountScaler by rounded bucket scaling,
// the same mechanism UDDSketch uses: both stores are rebuilt with each
// bucket count c replaced by round(c·g) (Add ignores non-positive
// counts, so buckets rounding to 0 vanish), and the zero counter scales
// the same way. Count() is derived from store totals, so no separate
// count fixup is needed. Stores iterate in ascending index order and
// each bucket transforms independently, so the rebuild is
// deterministic; rebuilding into a fresh store of the same kind keeps
// any collapsing bound intact (the scaled index span is a subset of the
// old one, so no new collapses occur). min/max are kept as conservative
// bounds.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	scaleStore := func(src Store) Store {
		dst := s.storeFn()
		src.ForEach(func(i int, c int64) bool {
			dst.Add(i, scaleCount(c, g))
			return true
		})
		return dst
	}
	s.positive = scaleStore(s.positive)
	s.negative = scaleStore(s.negative)
	s.zeroCnt = scaleCount(s.zeroCnt, g)
	if s.Count() == 0 {
		s.Reset()
	}
}

// scaleCount is ScaleCount's rounding of one count: round(c·g).
func scaleCount(c int64, g float64) int64 {
	return int64(math.Round(float64(c) * g))
}

// MergeScaled implements sketch.ScaledMerger in one ascending walk of
// other's stores, adding round(c·g) for each bucket count c: the Add
// sequence Merge sees when walking the reference path's scaled clone,
// whose rebuilt stores hold exactly the buckets that survive rounding,
// in the same order. If nothing survives, ScaleCount would have reset
// the clone, so min/max are left untouched as well; g ≤ 0 always
// resets it, so nothing is added at all.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, err := s.mergeable(other)
	if err != nil || g <= 0 {
		return err
	}
	before := s.Count()
	var added int64
	for _, st := range [2][2]Store{{o.positive, s.positive}, {o.negative, s.negative}} {
		dst := st[1]
		st[0].ForEach(func(i int, c int64) bool {
			if c = scaleCount(c, g); c > 0 {
				dst.Add(i, c)
				added += c
			}
			return true
		})
	}
	z := scaleCount(o.zeroCnt, g)
	s.zeroCnt += z
	added += z
	if added > 0 {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertCount("merge", before+uint64(added))
	return nil
}
