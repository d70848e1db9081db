package req

import (
	"fmt"
	"math"

	"repro/internal/sketch"
)

var (
	_ sketch.CountScaler  = (*Sketch)(nil)
	_ sketch.ScaledMerger = (*Sketch)(nil)
)

// ScaleCount implements sketch.CountScaler with the same binary
// re-decomposition KLL uses: an item in the height-h compactor carries
// weight 2^h, so after scaling it should carry W = round(g·2^h) and is
// re-placed into the compactor at every set bit of W (all ≤ h, so no
// new compactors appear). Each compactor keeps its section
// configuration and compaction-schedule state; only its buffer contents
// are rebuilt (unsorted, sortedLen reset). The new count is
// Σ_h |buf_h|·W_h, conserving retained weight exactly, and the whole
// transform is deterministic — compactors ascending, items in retained
// order, coin flips only in the final compress from the sketch's own
// PCG stream. Heights whose scaled weight rounds to 0 drop their items;
// if everything rounds away the sketch resets. min/max are kept as
// conservative bounds.
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	newBufs := make([][]float32, len(s.compactors))
	var count uint64
	for h, c := range s.compactors {
		if len(c.buf) == 0 {
			continue
		}
		w := uint64(math.Round(g * float64(uint64(1)<<uint(h))))
		if w == 0 {
			continue
		}
		count += w * uint64(len(c.buf))
		for b := uint(0); w>>b != 0; b++ {
			if w&(1<<b) != 0 {
				newBufs[b] = append(newBufs[b], c.buf...)
			}
		}
	}
	if count == 0 {
		s.Reset()
		return
	}
	for h, c := range s.compactors {
		c.buf = append(c.buf[:0], newBufs[h]...)
		c.sortedLen = 0
	}
	s.count = count
	s.auxValid = false
	s.compress()
}

// MergeScaled implements sketch.ScaledMerger: the reference path with
// an in-memory copy (clone) in place of its serde round trip. The copy
// continues bit-identically to a decoded one, RNG state included, so
// ScaleCount's compress flips the same coins and Merge sees the same
// compactors. other is only read.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into req", sketch.ErrIncompatible, other.Name())
	}
	c := o.clone()
	c.ScaleCount(g)
	return s.Merge(c)
}
