package uddsketch

import (
	"math"

	"repro/internal/fastlog"
	"repro/internal/sketch"
)

var (
	_ sketch.BatchInserter  = (*Sketch)(nil)
	_ sketch.MultiQuantiler = (*Sketch)(nil)
)

// InsertBatch implements sketch.BatchInserter: the stores, the indexer
// state, bounds and zero count stay in locals across the batch, and the
// index computation is s.index inlined by hand. The bucket-budget check
// stays per-element — a collapse changes every subsequent index — so
// collapses trigger at exactly the scalar path's points; the hoisted
// indexer state is refreshed after each collapse.
//
//sketch:hotpath
func (s *Sketch) InsertBatch(xs []float64) {
	pos, neg := s.positive, s.negative
	cubic := s.indexer == indexerCubic
	mult, logGamma, minIndexable := s.multiplier, s.logGamma, s.minIndexable()
	minV, maxV := s.min, s.max
	var zero, inserted int64
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		inserted++
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
		ax := math.Abs(x)
		if ax == 0 || ax < minIndexable {
			zero++
			continue
		}
		var i int
		if cubic {
			i = int(math.Ceil(fastlog.Log2Cubic(ax) * mult))
		} else {
			i = int(math.Ceil(math.Log(ax) / logGamma))
		}
		if x > 0 {
			pos.Add(i, 1)
		} else {
			neg.Add(i, 1)
		}
		if pos.NonEmptyBuckets()+neg.NonEmptyBuckets() > s.maxBuckets {
			s.zeroCnt += zero
			zero = 0
			s.min, s.max = minV, maxV
			s.enforceBudget()
			mult, logGamma, minIndexable = s.multiplier, s.logGamma, s.minIndexable()
		}
	}
	if metrics != nil {
		metrics.Inserts.Add(inserted)
	}
	s.zeroCnt += zero
	s.min, s.max = minV, maxV
}
