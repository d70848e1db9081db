package ddsketch

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sketch"
)

// Sketch is a DDSketch instance. It handles the full real line: positive
// values go to the positive store, negative values to a mirrored negative
// store, and exact zeros (plus positive values too small to index) to a
// dedicated counter, as in the reference implementation.
type Sketch struct {
	mapping   IndexMapping
	positive  Store
	negative  Store
	zeroCnt   int64
	min, max  float64
	storeFn   func() Store
	storeKind byte // which Store the constructor built: affects serde round-trip
	maxBkts   int

	// InsertBatch scratch: bucket indices staged per sign before the
	// dense store's bulk increment. Reused across calls; never
	// serialized.
	posScratch []int
	negScratch []int
}

var _ sketch.Sketch = (*Sketch)(nil)

// Store kinds a constructor can build, recorded so serde reconstructs
// the same store implementation. The byte values are the wire encoding
// (0/1 predate the paginated store, so old envelopes decode unchanged).
const (
	storeKindDense     byte = 0
	storeKindCollapse  byte = 1
	storeKindPaginated byte = 2
)

// New returns a DDSketch with relative accuracy alpha, the cubically
// interpolated index mapping (no log() call per insert; ~1% more buckets
// for the same α guarantee) and an unbounded dense store — the study's
// configuration (α = 0.01, γ = 1.0202) on the fast default paths. Use
// NewWithMapping with NewLogarithmic for the exact mapping. It panics on
// invalid alpha; use NewWithStore for checked construction.
func New(alpha float64) *Sketch {
	s, err := NewWithStore(alpha, func() Store { return NewDenseStore() })
	if err != nil {
		panic(err)
	}
	return s
}

// NewCollapsing returns a DDSketch with relative accuracy alpha and a
// collapsing-lowest dense store bounded at maxBuckets buckets (the
// bounded-memory variant used in the store ablation). It panics on
// invalid alpha; use NewWithStore for checked construction.
func NewCollapsing(alpha float64, maxBuckets int) *Sketch {
	s, err := NewWithStore(alpha, func() Store { return NewCollapsingLowestDenseStore(maxBuckets) })
	if err != nil {
		panic(err)
	}
	s.storeKind = storeKindCollapse
	s.maxBkts = maxBuckets
	return s
}

// NewPaginated returns a DDSketch with the buffered-paginated store:
// O(1) amortized inserts like the dense store, but memory proportional
// to the used index range (allocated page by page) instead of the full
// span. It panics on invalid alpha.
func NewPaginated(alpha float64) *Sketch {
	s, err := NewWithStore(alpha, func() Store { return NewBufferedPaginatedStore() })
	if err != nil {
		panic(err)
	}
	s.storeKind = storeKindPaginated
	return s
}

// NewWithStore returns a DDSketch with the default cubically
// interpolated mapping, using storeFn to construct its positive and
// negative stores.
func NewWithStore(alpha float64, storeFn func() Store) (*Sketch, error) {
	m, err := NewCubic(alpha)
	if err != nil {
		return nil, err
	}
	return NewWithMapping(m, storeFn)
}

// NewFromState assembles a sketch from externally accumulated state:
// the bridge the concurrent layer (internal/concurrent) uses to
// materialize a point-in-time snapshot of its atomic bin counters as a
// plain, queryable DDSketch. The stores are adopted, not copied — the
// caller must hand over exclusive ownership. A non-empty sketch
// (store counts or zeros present) requires ordered bounds minV ≤ maxV;
// an empty one must carry the canonical (+Inf, −Inf) sentinels.
func NewFromState(m IndexMapping, positive, negative Store, zeroCnt int64, minV, maxV float64) (*Sketch, error) {
	if m == nil {
		return nil, fmt.Errorf("ddsketch: nil mapping")
	}
	if positive == nil || negative == nil {
		return nil, fmt.Errorf("ddsketch: nil store")
	}
	if zeroCnt < 0 {
		return nil, fmt.Errorf("ddsketch: negative zero count %d", zeroCnt)
	}
	s := &Sketch{
		mapping:  m,
		positive: positive,
		negative: negative,
		zeroCnt:  zeroCnt,
		storeFn:  func() Store { return NewDenseStore() },
		min:      minV,
		max:      maxV,
	}
	if s.Count() > 0 {
		if !(minV <= maxV) {
			return nil, fmt.Errorf("ddsketch: unordered bounds min=%v max=%v", minV, maxV)
		}
	} else if !math.IsInf(minV, 1) || !math.IsInf(maxV, -1) {
		return nil, fmt.Errorf("ddsketch: empty sketch needs (+Inf, -Inf) bounds, got (%v, %v)", minV, maxV)
	}
	return s, nil
}

// NewWithMapping returns a DDSketch with an arbitrary index mapping
// (logarithmic, cubic or linear interpolation) and store constructor.
func NewWithMapping(m IndexMapping, storeFn func() Store) (*Sketch, error) {
	if m == nil {
		return nil, fmt.Errorf("ddsketch: nil mapping")
	}
	return &Sketch{
		mapping:  m,
		positive: storeFn(),
		negative: storeFn(),
		storeFn:  storeFn,
		min:      math.Inf(1),
		max:      math.Inf(-1),
	}, nil
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "ddsketch" }

// Alpha returns the configured relative accuracy.
func (s *Sketch) Alpha() float64 { return s.mapping.Alpha() }

// Gamma returns the bucket growth factor.
func (s *Sketch) Gamma() float64 { return s.mapping.Gamma() }

// Insert implements sketch.Sketch. NaN values are ignored.
func (s *Sketch) Insert(x float64) { s.InsertN(x, 1) }

// InsertN implements sketch.BulkInserter: n occurrences of x in O(1).
func (s *Sketch) InsertN(x float64, n uint64) {
	if math.IsNaN(x) || n == 0 {
		return
	}
	if metrics != nil {
		metrics.Inserts.Add(int64(n))
	}
	switch {
	case x > 0 && x >= s.mapping.MinIndexable():
		s.positive.Add(s.mapping.Index(x), int64(n))
	case x < 0 && -x >= s.mapping.MinIndexable():
		s.negative.Add(s.mapping.Index(-x), int64(n))
	default:
		s.zeroCnt += int64(n)
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 {
	return uint64(s.positive.Total() + s.negative.Total() + s.zeroCnt)
}

// totals returns the grand total and the negative store's share with a
// single Total() call per store (Count() would consult the negative
// store twice per query once negTotal is also needed).
func (s *Sketch) totals() (total, negTotal int64) {
	negTotal = s.negative.Total()
	total = s.positive.Total() + negTotal + s.zeroCnt
	return total, negTotal
}

// Quantile implements sketch.Sketch. The estimate for a quantile landing
// in positive bucket i is the midpoint 2γ^i/(γ+1), guaranteeing relative
// error at most α for values covered by the unbounded store.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	total, negTotal := s.totals()
	if total == 0 {
		return 0, sketch.ErrEmpty
	}
	return s.quantileFromTotals(q, total, negTotal), nil
}

// quantileFromTotals answers one valid q given precomputed store totals.
func (s *Sketch) quantileFromTotals(q float64, total, negTotal int64) float64 {
	// Rank of the q-quantile, 1-based: ⌈qN⌉.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	switch {
	case rank <= negTotal:
		// Negative values in descending magnitude order: the smallest
		// (most negative) value lives in the negative store's highest
		// bucket index.
		want := negTotal - rank // ranks from the top of the negative store
		var cum int64
		est := s.min
		s.negative.ForEach(func(i int, c int64) bool {
			cum += c
			if cum > want {
				est = -s.mapping.Value(i)
				return false
			}
			return true
		})
		return s.clampToRange(est)
	case rank <= negTotal+s.zeroCnt:
		return 0
	default:
		want := rank - negTotal - s.zeroCnt
		var cum int64
		est := s.max
		s.positive.ForEach(func(i int, c int64) bool {
			cum += c
			if cum >= want {
				est = s.mapping.Value(i)
				return false
			}
			return true
		})
		return s.clampToRange(est)
	}
}

// storeTarget is one batched rank target: want is the cumulative count
// that resolves it during a store scan, pos its slot in the output.
type storeTarget struct {
	want int64
	pos  int
}

// QuantileAll implements sketch.MultiQuantiler: every target rank is
// mapped to its store (negative / zero / positive) and each store is
// scanned once, resolving its targets in ascending cumulative order,
// instead of one ForEach walk per quantile.
func (s *Sketch) QuantileAll(qs []float64) ([]float64, error) {
	total, negTotal := s.totals()
	if err := sketch.ValidateQuantiles(qs, total == 0); err != nil {
		return nil, err
	}
	out := make([]float64, len(qs))
	var negT, posT []storeTarget
	for i, q := range qs {
		rank := int64(math.Ceil(q * float64(total)))
		if rank < 1 {
			rank = 1
		}
		if rank > total {
			rank = total
		}
		switch {
		case rank <= negTotal:
			negT = append(negT, storeTarget{negTotal - rank, i})
		case rank <= negTotal+s.zeroCnt:
			out[i] = 0
		default:
			posT = append(posT, storeTarget{rank - negTotal - s.zeroCnt, i})
		}
	}
	byWant := func(a, b storeTarget) int {
		switch {
		case a.want < b.want:
			return -1
		case a.want > b.want:
			return 1
		default:
			return 0
		}
	}
	if len(negT) > 0 {
		slices.SortFunc(negT, byWant)
		k := 0
		var cum int64
		s.negative.ForEach(func(i int, c int64) bool {
			cum += c
			for k < len(negT) && cum > negT[k].want {
				out[negT[k].pos] = s.clampToRange(-s.mapping.Value(i))
				k++
			}
			return k < len(negT)
		})
		for ; k < len(negT); k++ {
			out[negT[k].pos] = s.clampToRange(s.min)
		}
	}
	if len(posT) > 0 {
		slices.SortFunc(posT, byWant)
		k := 0
		var cum int64
		s.positive.ForEach(func(i int, c int64) bool {
			cum += c
			for k < len(posT) && cum >= posT[k].want {
				out[posT[k].pos] = s.clampToRange(s.mapping.Value(i))
				k++
			}
			return k < len(posT)
		})
		for ; k < len(posT); k++ {
			out[posT[k].pos] = s.clampToRange(s.max)
		}
	}
	return out, nil
}

// clampToRange keeps estimates within the observed [min, max] so bucket
// midpoints can never fall outside the data range.
func (s *Sketch) clampToRange(x float64) float64 {
	if x < s.min {
		return s.min
	}
	if x > s.max {
		return s.max
	}
	return x
}

// Rank implements sketch.Sketch: the estimated fraction of values ≤ x.
func (s *Sketch) Rank(x float64) (float64, error) {
	total := int64(s.Count())
	if total == 0 {
		return 0, sketch.ErrEmpty
	}
	var le int64
	if x >= 0 {
		le += s.negative.Total()
		le += s.zeroCnt
		if x > 0 {
			xi := s.mapping.Index(x)
			s.positive.ForEach(func(i int, c int64) bool {
				if i > xi {
					return false
				}
				le += c
				return true
			})
		}
	} else {
		xi := s.mapping.Index(-x)
		s.negative.ForEach(func(i int, c int64) bool {
			if i >= xi {
				le += c
			}
			return true
		})
	}
	return float64(le) / float64(total), nil
}

// Merge implements sketch.Sketch. Sketches must share the same γ (and
// hence α); bucket counts in the same range are added (Sec 3.3).
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, err := s.mergeable(other)
	if err != nil {
		return err
	}
	mergedCount := s.Count() + o.Count()
	o.positive.ForEach(func(i int, c int64) bool {
		s.positive.Add(i, c)
		return true
	})
	o.negative.ForEach(func(i int, c int64) bool {
		s.negative.Add(i, c)
		return true
	})
	s.zeroCnt += o.zeroCnt
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertCount("merge", mergedCount)
	return nil
}

// mergeable returns other as a *Sketch when it shares the receiver's
// index mapping, so its bucket indexes mean the same values.
func (s *Sketch) mergeable(other sketch.Sketch) (*Sketch, error) {
	o, ok := other.(*Sketch)
	if !ok {
		return nil, fmt.Errorf("%w: cannot merge %s into ddsketch", sketch.ErrIncompatible, other.Name())
	}
	if o.mapping.Name() != s.mapping.Name() ||
		math.Float64bits(o.mapping.Gamma()) != math.Float64bits(s.mapping.Gamma()) {
		return nil, fmt.Errorf("%w: mapping mismatch %s/%v vs %s/%v", sketch.ErrIncompatible,
			s.mapping.Name(), s.mapping.Gamma(), o.mapping.Name(), o.mapping.Gamma())
	}
	return o, nil
}

// ChangeMapping returns a copy of the sketch re-bucketed under a new
// index mapping: every bucket's representative value is re-indexed with
// the target mapping. This is the bridge between sketches serialized
// before the cubic-by-default switch (exact logarithmic mapping) and
// new-default sketches: Merge deliberately rejects mixed mappings, so
// convert one side first. The relative error guarantee of the result
// compounds to at most α_old + α_new + α_old·α_new, because each
// retained value moved by ≤ α_old before being re-bucketed within
// α_new.
func (s *Sketch) ChangeMapping(m IndexMapping) (*Sketch, error) {
	if m == nil {
		return nil, fmt.Errorf("ddsketch: nil mapping")
	}
	ns, err := NewWithMapping(m, s.storeFn)
	if err != nil {
		return nil, err
	}
	ns.storeKind = s.storeKind
	ns.maxBkts = s.maxBkts
	minIndexable := m.MinIndexable()
	rebucket := func(src, dst Store) {
		src.ForEach(func(i int, c int64) bool {
			v := s.mapping.Value(i)
			if v >= minIndexable {
				dst.Add(m.Index(v), c)
			} else {
				ns.zeroCnt += c
			}
			return true
		})
	}
	rebucket(s.positive, ns.positive)
	rebucket(s.negative, ns.negative)
	ns.zeroCnt += s.zeroCnt
	ns.min, ns.max = s.min, s.max
	return ns, nil
}

// MemoryBytes implements sketch.Sketch with the paper's numeric-size
// accounting: 8 bytes per retained number.
func (s *Sketch) MemoryBytes() int {
	numbers := s.positive.NumbersHeld() + s.negative.NumbersHeld() + 3 // zero count, min, max
	return 8 * numbers
}

// Footprint implements sketch.Footprinter: the structural store bytes
// plus the InsertBatch staging scratch the sketch retains across calls.
func (s *Sketch) Footprint() int {
	return s.MemoryBytes() + 8*(cap(s.posScratch)+cap(s.negScratch))
}

// minDegradeBuckets is the per-store floor below which Degrade refuses
// to collapse further: with so few buckets left a collapse frees almost
// nothing and the store is already a coarse histogram.
const minDegradeBuckets = 4

// Degrade implements sketch.Degrader: collapse the lowest-value half of
// each store's non-empty buckets into the lowest surviving bucket —
// lowest indices of the positive store, highest (most negative) indices
// of the negative store — rebuilding the stores so dense spans and
// paginated pages actually shrink. The mapping is untouched, so the
// degraded sketch merges with any sketch of the same γ, and values
// above the collapsed region keep the full α guarantee; like the
// reference CollapsingLowestDenseStore, only the lowest quantiles'
// relative-error guarantee is forfeited (estimates there remain clamped
// to the exact [min, max]).
func (s *Sketch) Degrade() (int, error) {
	before := s.Footprint()
	count := s.Count()
	collapsed := false
	if st, did := s.collapseExtreme(s.positive, true); did {
		s.positive = st
		collapsed = true
	}
	if st, did := s.collapseExtreme(s.negative, false); did {
		s.negative = st
		collapsed = true
	}
	if !collapsed {
		return 0, sketch.ErrNotDegradable
	}
	s.posScratch, s.negScratch = nil, nil
	s.assertCount("degrade", count)
	freed := before - s.Footprint()
	if freed < 0 {
		freed = 0
	}
	return freed, nil
}

// collapseExtreme rebuilds st with the half of its buckets holding the
// most extreme low values folded into the lowest surviving bucket. low
// selects which end is extreme: the low-index end (positive store) or
// the high-index end (negative store, where higher index = more
// negative value).
func (s *Sketch) collapseExtreme(st Store, low bool) (Store, bool) {
	nb := st.NonEmptyBuckets()
	if nb < minDegradeBuckets {
		return st, false
	}
	drop := nb / 2 // buckets folded away
	ns := s.storeFn()
	if low {
		// Fold the `drop` lowest buckets into the lowest survivor.
		seen := 0
		var boundary int
		st.ForEach(func(i int, c int64) bool {
			if seen < drop {
				seen++
				boundary = i // grows until the last folded bucket
				return true
			}
			if seen == drop {
				seen++
				boundary = i // the lowest surviving bucket
			}
			return false
		})
		st.ForEach(func(i int, c int64) bool {
			if i < boundary {
				ns.Add(boundary, c)
			} else {
				ns.Add(i, c)
			}
			return true
		})
	} else {
		// Fold the `drop` highest buckets into the highest survivor.
		keep := nb - drop
		seen := 0
		boundary := 0
		st.ForEach(func(i int, c int64) bool {
			seen++
			boundary = i
			return seen < keep // stops at the highest surviving bucket
		})
		st.ForEach(func(i int, c int64) bool {
			if i > boundary {
				ns.Add(boundary, c)
			} else {
				ns.Add(i, c)
			}
			return true
		})
	}
	return ns, true
}

// AccuracyBound implements sketch.AccuracyBounder: the mapping's
// relative accuracy α, which store collapses do not change — Degrade
// instead narrows the value range over which α holds (quantiles below
// the collapsed boundary lose the guarantee), so budget-degraded
// DDSketch windows are flagged by their degradation count rather than
// a larger bound.
func (s *Sketch) AccuracyBound() float64 { return s.mapping.Alpha() }

// NonEmptyBuckets reports the number of non-empty buckets across both
// stores (the statistic the paper tracks in Sec 4.3).
func (s *Sketch) NonEmptyBuckets() int {
	return s.positive.NonEmptyBuckets() + s.negative.NonEmptyBuckets()
}

// CollapseCount reports store collapses (0 with unbounded stores).
func (s *Sketch) CollapseCount() int {
	return s.positive.CollapseCount() + s.negative.CollapseCount()
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	s.positive.Reset()
	s.negative.Reset()
	s.zeroCnt = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64 + 16*(s.positive.NonEmptyBuckets()+s.negative.NonEmptyBuckets()))
	w.Header(sketch.TagDDSketch)
	w.Byte(s.storeKind)
	if s.storeKind == storeKindCollapse {
		w.U32(uint32(s.maxBkts))
	} else {
		w.U32(0)
	}
	w.Byte(mappingCode(s.mapping.Name()))
	w.F64(s.mapping.Alpha())
	w.I64(s.zeroCnt)
	w.F64(s.min)
	w.F64(s.max)
	writeStore := func(st Store) {
		w.U32(uint32(st.NonEmptyBuckets()))
		st.ForEach(func(i int, c int64) bool {
			w.I64(int64(i))
			w.I64(c)
			return true
		})
	}
	writeStore(s.positive)
	writeStore(s.negative)
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagDDSketch); err != nil {
		return err
	}
	storeKind := r.Byte()
	maxBkts := int(r.U32())
	mapCode := r.Byte()
	alpha := r.F64()
	zero := r.I64()
	minV := r.F64()
	maxV := r.F64()
	if r.Err() != nil {
		return r.Err()
	}
	if zero < 0 || math.IsNaN(minV) || math.IsNaN(maxV) {
		return sketch.ErrCorrupt
	}
	var ns *Sketch
	if !(alpha > 0 && alpha < 1) {
		return sketch.ErrCorrupt
	}
	m, err := mappingFromCode(mapCode, alpha)
	if err != nil {
		return sketch.ErrCorrupt
	}
	var storeFn func() Store
	switch storeKind {
	case storeKindDense:
		storeFn = func() Store { return NewDenseStore() }
	case storeKindCollapse:
		if maxBkts < 2 || maxBkts > 1<<24 {
			return sketch.ErrCorrupt
		}
		storeFn = func() Store { return NewCollapsingLowestDenseStore(maxBkts) }
	case storeKindPaginated:
		storeFn = func() Store { return NewBufferedPaginatedStore() }
	default:
		return sketch.ErrCorrupt
	}
	ns, err = NewWithMapping(m, storeFn)
	if err != nil {
		return sketch.ErrCorrupt
	}
	ns.storeKind = storeKind
	if storeKind == storeKindCollapse {
		ns.maxBkts = maxBkts
	}
	ns.zeroCnt = zero
	ns.min = minV
	ns.max = maxV
	readStore := func(st Store) error {
		n := int(r.U32())
		for i := 0; i < n; i++ {
			idx := r.I64()
			c := r.I64()
			if r.Err() != nil {
				return r.Err()
			}
			// Indices beyond ±2^26 cannot arise from float64 inputs at any
			// valid α and would make the dense store allocate its whole
			// span; reject them as corruption.
			if c < 0 || idx > 1<<26 || idx < -(1<<26) {
				return sketch.ErrCorrupt
			}
			st.Add(int(idx), c)
		}
		return nil
	}
	if err := readStore(ns.positive); err != nil {
		return err
	}
	if err := readStore(ns.negative); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	// Structural validation: a non-empty sketch needs ordered bounds.
	if ns.Count() > 0 && !(ns.min <= ns.max) {
		return sketch.ErrCorrupt
	}
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}

// mappingCode encodes a mapping name for serialization.
func mappingCode(name string) byte {
	switch name {
	case "logarithmic":
		return 0
	case "cubic":
		return 1
	case "linear":
		return 2
	default:
		return 0xFF
	}
}

// mappingFromCode reconstructs a mapping from its serialized code.
func mappingFromCode(code byte, alpha float64) (IndexMapping, error) {
	switch code {
	case 0:
		return NewLogarithmic(alpha)
	case 1:
		return NewCubicMapping(alpha)
	case 2:
		return NewLinearMapping(alpha)
	default:
		return nil, fmt.Errorf("ddsketch: unknown mapping code %d", code)
	}
}
