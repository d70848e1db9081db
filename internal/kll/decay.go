package kll

import (
	"fmt"
	"math"

	"repro/internal/sketch"
)

var (
	_ sketch.CountScaler  = (*Sketch)(nil)
	_ sketch.ScaledMerger = (*Sketch)(nil)
)

// ScaleCount implements sketch.CountScaler by binary re-decomposition of
// the retained samples: a sample at level h carries weight 2^h, so after
// scaling it should carry W = round(g·2^h), and it is re-placed at every
// set bit of W (all bits are ≤ h, so the sketch never grows in height).
// Weight conservation (Σ_h |levels[h]|·2^h == count) holds exactly for
// the new count Σ_h |levels[h]|·W_h, and the result is a pure function
// of the prior state and g: levels are visited in ascending order,
// samples in retained order, with no randomness until the final
// capacity-restoring compress (whose coin flips come from the sketch's
// own deterministic PCG stream). Levels whose scaled weight rounds to 0
// drop their samples; if everything rounds away the sketch resets.
// min/max are kept: surviving samples are a subset of the old ones, so
// the bounds stay ordered (they become conservative, not exact).
func (s *Sketch) ScaleCount(g float64) {
	if math.IsNaN(g) || g >= 1 {
		return
	}
	if g <= 0 {
		s.Reset()
		return
	}
	newLevels := make([][]float32, len(s.levels))
	var count uint64
	for h, lv := range s.levels {
		if len(lv) == 0 {
			continue
		}
		w := uint64(math.Round(g * float64(uint64(1)<<uint(h))))
		if w == 0 {
			continue
		}
		count += w * uint64(len(lv))
		for b := uint(0); w>>b != 0; b++ {
			if w&(1<<b) != 0 {
				newLevels[b] = append(newLevels[b], lv...)
			}
		}
	}
	if count == 0 {
		s.Reset()
		return
	}
	for h := range s.levels {
		s.levels[h] = append(s.levels[h][:0], newLevels[h]...)
	}
	s.count = count
	s.auxValid = false
	s.compress()
}

// MergeScaled implements sketch.ScaledMerger: the reference path with
// an in-memory copy (Clone) in place of its serde round trip. The copy
// continues bit-identically to a decoded one, RNG state included, so
// ScaleCount's compress flips the same coins and Merge sees the same
// levels. other is only read.
func (s *Sketch) MergeScaled(other sketch.Sketch, g float64) error {
	if math.IsNaN(g) || g >= 1 {
		return s.Merge(other)
	}
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into kll", sketch.ErrIncompatible, other.Name())
	}
	c := o.Clone()
	c.ScaleCount(g)
	return s.Merge(c)
}
