// Package req implements ReqSketch (Cormode, Karnin, Liberty, Thaler,
// Veselý; PODS 2021), the relative-error quantile sketch built from
// *relative compactors*. Each compactor keeps a protected half of its
// buffer untouched and compacts only sections from the other end, with a
// schedule that compacts the extreme sections geometrically more often —
// yielding the multiplicative rank guarantee
// |R̂ank(x) − Rank(x)| ≤ ε·Rank(x) (LRA) with high probability.
//
// In high-rank-accuracy (HRA) mode, the mode the study evaluates, the
// *smallest* values are compacted first so upper quantiles are sharpest
// (paper Sec 3.5 and 4.2). Samples are stored as float32, mirroring the
// DataSketches float implementation whose footprint the study reports
// (≈17 KB / ≈4,177 retained items at 1M Pareto inserts, Sec 4.3).
package req

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/sketch"
)

// DefaultSectionSize is the study's configuration for the compactor
// section size k (which the paper calls num_sections).
const DefaultSectionSize = 30

const (
	minSectionSize  = 4
	initNumSections = 3
	sqrt2           = 1.4142135623730951
)

// compactor is one relative compactor at height h; items in it carry
// weight 2^h.
type compactor struct {
	h            int
	sectionSizeF float64
	sectionSize  int
	numSections  int
	state        uint64 // number of compactions performed
	buf          []float32
	sortedLen    int // buf[:sortedLen] is sorted; appends land after it
	scratch      []float32
}

func newCompactor(h, sectionSize int) *compactor {
	return &compactor{
		h:            h,
		sectionSizeF: float64(sectionSize),
		sectionSize:  sectionSize,
		numSections:  initNumSections,
		buf:          make([]float32, 0, 2*sectionSize*initNumSections),
	}
}

// capacity is the buffer size that triggers compaction: 2·k·numSections,
// half of which is the protected region.
func (c *compactor) capacity() int { return 2 * c.sectionSize * c.numSections }

// sort restores full sortedness. The buffer is always a sorted prefix
// (survivors of the last compaction) plus an unsorted tail of new
// arrivals, so sorting the tail and merging the two runs is much cheaper
// than re-sorting the whole buffer every compaction.
func (c *compactor) sort() {
	if c.sortedLen == len(c.buf) {
		return
	}
	tail := c.buf[c.sortedLen:]
	slices.Sort(tail)
	if c.sortedLen > 0 {
		c.scratch = append(c.scratch[:0], tail...)
		// Merge backward: largest elements settle at the end first.
		i, j, k := c.sortedLen-1, len(c.scratch)-1, len(c.buf)-1
		for j >= 0 {
			if i >= 0 && c.buf[i] > c.scratch[j] {
				c.buf[k] = c.buf[i]
				i--
			} else {
				c.buf[k] = c.scratch[j]
				j--
			}
			k--
		}
	}
	c.sortedLen = len(c.buf)
}

// nearestEven rounds to the nearest even integer.
func nearestEven(f float64) int {
	return 2 * int(math.Round(f/2))
}

// Sketch is a ReqSketch instance.
type Sketch struct {
	k          int  // initial section size
	hra        bool // high ranks accurate (compact lowest values first)
	compactors []*compactor
	count      uint64
	min, max   float64
	rng        *rand.Rand
	pcg        *rand.PCG // rng's source, kept for exact state serialization
	seed       uint64

	// Sorted-view cache (values ascending with cumulative weights), built
	// lazily at query time and invalidated by mutation. Unlike KLL's, the
	// rebuild must re-sort higher compactors too, which is why ReqSketch
	// query time grows with data size (Sec 4.4.2). The slices (and the
	// weighted scratch the build sorts in) keep their capacity across
	// rebuilds, so steady-state queries allocate nothing.
	auxValid   bool
	auxVals    []float32
	auxCum     []uint64
	auxScratch []weighted
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a ReqSketch with section size k in HRA or LRA mode and a
// fixed default seed. Use NewWithSeed to vary the randomization.
func New(k int, hra bool) *Sketch { return NewWithSeed(k, hra, 0x0e90e90e90e90e95) }

// NewWithSeed returns a ReqSketch whose compaction coin flips derive from
// seed. It panics if k is below the minimum section size.
func NewWithSeed(k int, hra bool, seed uint64) *Sketch {
	if k < minSectionSize {
		panic(fmt.Sprintf("req: section size must be >= %d, got %d", minSectionSize, k))
	}
	k = nearestEven(float64(k))
	pcg := rand.NewPCG(seed, seed^0xbf58476d1ce4e5b9)
	return &Sketch{
		k:          k,
		hra:        hra,
		compactors: []*compactor{newCompactor(0, k)},
		min:        math.Inf(1),
		max:        math.Inf(-1),
		rng:        rand.New(pcg),
		pcg:        pcg,
		seed:       seed,
	}
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "req" }

// K returns the configured initial section size.
func (s *Sketch) K() int { return s.k }

// HighRankAccuracy reports whether the sketch favours upper quantiles.
func (s *Sketch) HighRankAccuracy() bool { return s.hra }

// Insert implements sketch.Sketch. NaNs are ignored.
func (s *Sketch) Insert(x float64) {
	if math.IsNaN(x) {
		return
	}
	if metrics != nil {
		metrics.Inserts.Inc()
	}
	c0 := s.compactors[0]
	c0.buf = append(c0.buf, float32(x))
	s.count++
	s.auxValid = false
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if len(c0.buf) >= c0.capacity() {
		s.compress()
	}
}

// compress compacts every over-full compactor from the bottom up.
func (s *Sketch) compress() {
	for h := 0; h < len(s.compactors); h++ {
		c := s.compactors[h]
		if len(c.buf) >= c.capacity() {
			s.compactLevel(h)
			if metrics != nil {
				metrics.Compactions.Inc()
			}
		}
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
}

// compactLevel runs one compaction of compactor h, promoting survivors to
// height h+1 (created on demand).
func (s *Sketch) compactLevel(h int) {
	c := s.compactors[h]
	if len(c.buf) < 2 {
		return
	}
	if h+1 >= len(s.compactors) {
		s.compactors = append(s.compactors, newCompactor(h+1, c.sectionSize))
	}
	next := s.compactors[h+1]
	c.sort()

	// The schedule: the number of sections compacted at the C-th
	// compaction is trailingOnes(C)+1, capped at numSections — so the
	// extreme sections compact every time and interior sections
	// geometrically less often (Sec 3.5).
	secs := bits.TrailingZeros64(^c.state) + 1
	if secs > c.numSections {
		secs = c.numSections
	}
	L := secs * c.sectionSize
	// Never touch the protected half of the nominal capacity; with
	// oversized buffers (post-merge) allow compacting the excess too.
	if maxL := len(c.buf) - c.capacity()/2; L > maxL {
		L = maxL
	}
	L &^= 1 // even
	if L < 2 {
		L = 2
		if len(c.buf) < 2 {
			return
		}
	}

	var compactRegion []float32
	if s.hra {
		// High ranks accurate: sacrifice the smallest values.
		compactRegion = c.buf[:L]
	} else {
		compactRegion = c.buf[len(c.buf)-L:]
	}
	offset := 0
	if s.rng.Uint64()&1 == 1 {
		offset = 1
	}
	for i := offset; i < len(compactRegion); i += 2 {
		next.buf = append(next.buf, compactRegion[i])
	}
	if s.hra {
		c.buf = append(c.buf[:0], c.buf[L:]...)
	} else {
		c.buf = c.buf[:len(c.buf)-L]
	}
	c.sortedLen = len(c.buf) // removing a contiguous region of a sorted buffer keeps it sorted

	c.state++
	// Grow the number of sections (shrinking their size by √2) once the
	// compaction count warrants it, keeping the ε schedule on track as n
	// grows.
	if c.state >= 1<<uint(c.numSections-1) && c.sectionSize > minSectionSize {
		if ne := nearestEven(c.sectionSizeF / sqrt2); ne >= minSectionSize {
			c.sectionSizeF /= sqrt2
			c.sectionSize = ne
			c.numSections <<= 1
		}
	}
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 { return s.count }

type weighted struct {
	v float32
	w uint64
}

// samples returns all retained items with weights, sorted by value. The
// returned slice aliases the sketch's reusable scratch buffer. Equal
// values may land in any order (the sort is unstable), which cannot be
// observed: Quantile and Rank only consult cumulative weight at value
// boundaries.
func (s *Sketch) samples() []weighted {
	out := s.auxScratch[:0]
	for _, c := range s.compactors {
		w := uint64(1) << uint(c.h)
		for _, v := range c.buf {
			out = append(out, weighted{v, w})
		}
	}
	slices.SortFunc(out, func(a, b weighted) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	s.auxScratch = out
	return out
}

// buildAux materializes the sorted view once per mutation epoch, reusing
// the capacity of the previous epoch's arrays.
func (s *Sketch) buildAux() {
	if s.auxValid {
		return
	}
	sm := s.samples()
	vals := s.auxVals[:0]
	cums := s.auxCum[:0]
	var cum uint64
	for _, e := range sm {
		cum += e.w
		vals = append(vals, e.v)
		cums = append(cums, cum)
	}
	s.auxVals, s.auxCum = vals, cums
	s.auxValid = true
}

// Quantile implements sketch.Sketch; estimates are actual inserted values
// (float32-rounded) and q = 1 returns the exact maximum.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	if q == 1 {
		return s.max, nil
	}
	s.buildAux()
	return s.quantileFromAux(q), nil
}

// quantileFromAux answers one valid q against the built sorted view.
func (s *Sketch) quantileFromAux(q float64) float64 {
	if q == 1 {
		return s.max
	}
	target := uint64(math.Ceil(q * float64(s.count)))
	if target < 1 {
		target = 1
	}
	i := sort.Search(len(s.auxCum), func(i int) bool { return s.auxCum[i] >= target })
	if i >= len(s.auxVals) {
		return s.max
	}
	return clampF(float64(s.auxVals[i]), s.min, s.max)
}

// QuantileAll implements sketch.MultiQuantiler: the cumulative CDF
// snapshot is built once and every target rank binary-searches it.
func (s *Sketch) QuantileAll(qs []float64) ([]float64, error) {
	if err := sketch.ValidateQuantiles(qs, s.count == 0); err != nil {
		return nil, err
	}
	s.buildAux()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = s.quantileFromAux(q)
	}
	return out, nil
}

// Rank implements sketch.Sketch.
func (s *Sketch) Rank(x float64) (float64, error) {
	if s.count == 0 {
		return 0, sketch.ErrEmpty
	}
	s.buildAux()
	xf := float32(x)
	i := sort.Search(len(s.auxVals), func(i int) bool { return s.auxVals[i] > xf })
	if i == 0 {
		return 0, nil
	}
	return float64(s.auxCum[i-1]) / float64(s.count), nil
}

// Merge implements sketch.Sketch: same-height compactors concatenate
// their buffers, the compaction schedule states merge by bitwise OR
// (Sec 3.5), and over-full levels are compacted.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("%w: cannot merge %s into req", sketch.ErrIncompatible, other.Name())
	}
	if o.hra != s.hra {
		return fmt.Errorf("%w: hra mismatch %v vs %v", sketch.ErrIncompatible, s.hra, o.hra)
	}
	// Differing k merge under the min-k rule (mirroring KLL): the merged
	// sketch adopts the smaller configuration, so budget-degraded
	// partials (Degrade) stay mergeable with full-k ones at the degraded
	// error bound. The accuracy mode itself must match — HRA and LRA
	// sketches protect opposite ends of their buffers.
	if o.k < s.k {
		s.k = o.k
	}
	for len(s.compactors) < len(o.compactors) {
		h := len(s.compactors)
		s.compactors = append(s.compactors, newCompactor(h, s.compactors[h-1].sectionSize))
	}
	for h, oc := range o.compactors {
		c := s.compactors[h]
		// Appended foreign items form the unsorted tail; the receiver's
		// sorted prefix remains valid.
		c.buf = append(c.buf, oc.buf...)
		c.state |= oc.state
		// Adopt the finer (further advanced) section configuration; at
		// equal advancement, the smaller (degraded) section size wins so
		// the merge direction cannot resurrect a pre-degradation config.
		if oc.numSections > c.numSections ||
			(oc.numSections == c.numSections && oc.sectionSize < c.sectionSize) {
			c.numSections = oc.numSections
			c.sectionSize = oc.sectionSize
			c.sectionSizeF = oc.sectionSizeF
		}
	}
	s.count += o.count
	s.auxValid = false
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.compress()
	return nil
}

// Retained reports the total number of samples currently held.
func (s *Sketch) Retained() int {
	n := 0
	for _, c := range s.compactors {
		n += len(c.buf)
	}
	return n
}

// NumLevels reports the number of relative compactors.
func (s *Sketch) NumLevels() int { return len(s.compactors) }

// MemoryBytes implements sketch.Sketch: 4 bytes per retained float32
// sample plus per-compactor and global bookkeeping.
func (s *Sketch) MemoryBytes() int {
	return 4*s.Retained() + 5*8*len(s.compactors) + 8*8
}

// Footprint implements sketch.Footprinter: the live bytes actually
// held — allocated buffer and merge-scratch capacity per compactor plus
// the sorted-view caches and fixed bookkeeping — as opposed to
// MemoryBytes' occupancy-based Table 3 accounting.
func (s *Sketch) Footprint() int {
	b := 0
	for _, c := range s.compactors {
		b += 4*(cap(c.buf)+cap(c.scratch)) + 5*8
	}
	return b + 4*cap(s.auxVals) + 8*cap(s.auxCum) + 16*cap(s.auxScratch) + 8*8
}

// Degrade implements sketch.Degrader: halve every compactor's section
// size (floored at the minimum, 4) and force-compact under the shrunken
// capacities, clipping buffers to their new occupancy. The degraded
// sketch stays mergeable with full-k sketches through the min-k Merge
// rule; its relative-error scale grows by ≈√2 per step (AccuracyBound).
func (s *Sketch) Degrade() (int, error) {
	before := s.Footprint()
	shrunk := false
	for _, c := range s.compactors {
		if ne := nearestEven(c.sectionSizeF / 2); ne >= minSectionSize && ne < c.sectionSize {
			c.sectionSizeF /= 2
			c.sectionSize = ne
			shrunk = true
		}
	}
	if !shrunk {
		return 0, sketch.ErrNotDegradable
	}
	if nk := nearestEven(float64(s.k) / 2); nk >= minSectionSize {
		s.k = nk
	}
	s.auxValid = false
	s.compress()
	for _, c := range s.compactors {
		c.buf = slices.Clip(c.buf)
		c.scratch = nil
	}
	s.auxVals, s.auxCum, s.auxScratch = nil, nil, nil
	freed := before - s.Footprint()
	if freed < 0 {
		freed = 0
	}
	return freed, nil
}

// AccuracyBound implements sketch.AccuracyBounder with the DataSketches
// empirical scale for ReqSketch's relative rank error, ε(k) ≈ √(0.0512/k)
// (≈4.1% relative standard error at the study's k = 30). Like KLL's, it
// is a comparable error scale that grows as the sketch degrades, not a
// formal tail bound.
func (s *Sketch) AccuracyBound() float64 {
	return math.Sqrt(0.0512 / float64(s.k))
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	*s = *NewWithSeed(s.k, s.hra, s.seed)
}

// clone returns a deep copy that continues (inserts, compaction coin
// flips, serialization) bit-identically to the receiver while sharing
// no mutable state with it. The sorted-view caches and merge scratch
// are not copied; they are query-time scratch rebuilt on demand. It
// panics if the compaction RNG state fails to round-trip, which cannot
// happen for a state the RNG itself produced.
func (s *Sketch) clone() *Sketch {
	c := &Sketch{
		k:     s.k,
		hra:   s.hra,
		count: s.count,
		min:   s.min,
		max:   s.max,
		seed:  s.seed,
	}
	c.compactors = make([]*compactor, len(s.compactors))
	for h, sc := range s.compactors {
		cc := *sc
		cc.buf = slices.Clone(sc.buf)
		cc.scratch = nil
		c.compactors[h] = &cc
	}
	state, err := s.pcg.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("req: clone: marshal rng state: %v", err))
	}
	pcg := rand.NewPCG(s.seed, s.seed^0xbf58476d1ce4e5b9)
	if err := pcg.UnmarshalBinary(state); err != nil {
		panic(fmt.Sprintf("req: clone: restore rng state: %v", err))
	}
	c.pcg = pcg
	c.rng = rand.New(pcg)
	return c
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(96 + 4*s.Retained())
	w.Header(sketch.TagReq)
	w.U32(uint32(s.k))
	if s.hra {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.U64(s.seed)
	rngState, err := s.pcg.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.Blob(rngState)
	w.U64(s.count)
	w.F64(s.min)
	w.F64(s.max)
	w.U32(uint32(len(s.compactors)))
	for _, c := range s.compactors {
		w.F64(c.sectionSizeF)
		w.U32(uint32(c.sectionSize))
		w.U32(uint32(c.numSections))
		w.U64(c.state)
		w.U32(uint32(len(c.buf)))
		for _, v := range c.buf {
			w.U32(math.Float32bits(v))
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Like KLL, the
// decoded sketch restores the exact PCG state of its coin-flip RNG, so
// it continues bit-identically to the original.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagReq); err != nil {
		return err
	}
	k := int(r.U32())
	hra := r.Byte() == 1
	seed := r.U64()
	rngState := r.Blob()
	count := r.U64()
	minV := r.F64()
	maxV := r.F64()
	numLevels := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if k < minSectionSize || k > 1<<20 || numLevels < 1 || numLevels > 64 {
		return sketch.ErrCorrupt
	}
	ns := NewWithSeed(k, hra, seed)
	if err := ns.pcg.UnmarshalBinary(rngState); err != nil {
		return sketch.ErrCorrupt
	}
	ns.count = count
	ns.min = minV
	ns.max = maxV
	ns.compactors = make([]*compactor, numLevels)
	for h := range ns.compactors {
		c := newCompactor(h, k)
		c.sectionSizeF = r.F64()
		c.sectionSize = int(r.U32())
		c.numSections = int(r.U32())
		c.state = r.U64()
		n := int(r.U32())
		if r.Err() != nil || n < 0 || n > r.Remaining()/4 {
			return sketch.ErrCorrupt
		}
		if c.sectionSize < minSectionSize || c.sectionSize > 1<<20 || c.numSections < 1 || c.numSections > 1<<20 {
			return sketch.ErrCorrupt
		}
		c.buf = make([]float32, n)
		for i := range c.buf {
			c.buf[i] = math.Float32frombits(r.U32())
		}
		c.sortedLen = 0
		ns.compactors[h] = c
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	*s = *ns
	return nil
}
