// Package uddsketch implements UDDSketch (Epicoco et al., IEEE Access
// 2020), the uniform-collapse variant of DDSketch. Like DDSketch it is a
// log-bucketed histogram, but when the bucket budget is exhausted it
// collapses *every* adjacent bucket pair (i, i+1), i odd, into bucket
// ⌈i/2⌉ — squaring γ and degrading the relative-error guarantee uniformly
// to α' = 2α/(1+α²) instead of sacrificing the lowest quantiles.
//
// Because atanh(α') = 2·atanh(α) under that recurrence, the initial
// accuracy needed to guarantee a final accuracy α_k after k−1 collapses is
// α₀ = tanh(atanh(α_k)/2^(k−1)), which NewWithBudget computes (paper
// Sec 3.4 and 4.2).
//
// One Sketch type is the indexer, a positive and a mirrored negative
// ddsketch bucket store, and the uniform-collapse policy. The store is
// chosen by constructor: NewChecked and NewWithBudget use the map-backed
// ddsketch.SparseStore, mirroring the study's methodology — the paper's
// UDDSketch deliberately keeps the map store of the original C
// implementation and attributes its slower insert/merge times to it —
// while NewArray and NewArrayWithBudget use the array-backed
// ddsketch.DenseStore, the store ablation that tests that attribution.
// Both stores hold the same buckets, so every answer is bit-identical
// between them.
package uddsketch

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/ddsketch"
	"repro/internal/fastlog"
	"repro/internal/sketch"
)

// Bucket indexer kinds. The cubic indexer replaces the per-insert
// math.Log with a float-bit log2 approximation (internal/fastlog) whose
// slope distortion is folded into a precomputed multiplier, preserving
// the α guarantee by construction. The exact-log indexer is retained for
// sketches deserialized from envelopes that predate the fast indexer
// (their bucket boundaries are log_γ's, not the cubic approximation's,
// so the indexer kind must travel with the data).
const (
	indexerLog   byte = 0 // exact ⌈log_γ x⌉ via math.Log (legacy envelopes)
	indexerCubic byte = 1 // ⌈ℓ(x)·multiplier⌉ via fastlog.Log2Cubic (default)
)

// indexerFlagCubic marks the cubic indexer in the serialized collapse
// counter's high bit, and storeFlagDense the dense store in the bit
// below it. Collapses are bounded (≤4096; α saturates long before), so
// both bits are always clear in envelopes written before the fast
// indexer and the dense store existed — those decode as exact-log,
// map-store sketches, keeping their bucket boundaries meaningful, with
// no format-version bump and no change to the length of the envelope
// (truncations stay detectable).
const (
	indexerFlagCubic = uint32(1) << 31
	storeFlagDense   = uint32(1) << 30
)

// initMultiplier returns the cubic indexer's buckets-per-ℓ-unit factor
// for an uncollapsed γ: 1/(minSlope·log2 γ), the same construction as
// DDSketch's cubic mapping.
func initMultiplier(gamma float64) float64 {
	return 1 / (fastlog.CubicMinSlope * math.Log2(gamma))
}

// bucketStore is what UDDSketch needs from a ddsketch store beyond the
// shared Store interface: the uniform collapse, and a walk that skips
// SparseStore.ForEach's key sort for order-independent folds.
type bucketStore interface {
	ddsketch.Store
	CollapseUniform()
	ForEachUnordered(fn func(index int, count int64))
}

// Sketch is a UDDSketch instance covering the full real line (positive
// store, mirrored negative store, and an exact-zero counter).
type Sketch struct {
	initAlpha  float64
	alpha      float64
	gamma      float64
	logGamma   float64
	maxBuckets int
	collapses  int

	// indexer selects the bucket-boundary family; multiplier is the
	// cubic indexer's index factor. A uniform collapse merges index
	// pairs (2i−1, 2i) → i, which for fixed bucket boundaries is
	// exactly a halving of the multiplier — so the multiplier is
	// *halved* per collapse (exact in floating point) rather than
	// recomputed from the collapsed α, keeping collapse-then-insert and
	// insert-then-collapse bit-identical.
	indexer    byte
	multiplier float64

	dense    bool // stores are DenseStores (NewArray) rather than SparseStores
	positive bucketStore
	negative bucketStore
	zeroCnt  int64
	min, max float64
}

var _ sketch.Sketch = (*Sketch)(nil)

// New returns a map-store UDDSketch with initial relative accuracy
// alpha0 and a bucket budget of maxBuckets (counting positive and
// negative buckets together). It panics on invalid parameters; use
// NewChecked for errors.
func New(alpha0 float64, maxBuckets int) *Sketch {
	s, err := NewChecked(alpha0, maxBuckets)
	if err != nil {
		panic(err)
	}
	return s
}

// NewChecked is New with error reporting instead of panicking.
func NewChecked(alpha0 float64, maxBuckets int) (*Sketch, error) {
	return newSketch(alpha0, maxBuckets, false)
}

// NewArray is NewChecked on the dense array store instead of the map.
func NewArray(alpha0 float64, maxBuckets int) (*Sketch, error) {
	return newSketch(alpha0, maxBuckets, true)
}

// NewWithBudget returns a map-store UDDSketch whose *final* relative
// accuracy is still alphaK after numCollapses−1 uniform collapses, by
// starting from α₀ = tanh(atanh(alphaK)/2^(numCollapses−1)). This
// reproduces the study's configuration: alphaK = 0.01, maxBuckets =
// 1024, numCollapses = 12.
func NewWithBudget(alphaK float64, maxBuckets, numCollapses int) (*Sketch, error) {
	alpha0, err := budgetAlpha(alphaK, numCollapses)
	if err != nil {
		return nil, err
	}
	return NewChecked(alpha0, maxBuckets)
}

// NewArrayWithBudget is NewWithBudget on the dense array store.
func NewArrayWithBudget(alphaK float64, maxBuckets, numCollapses int) (*Sketch, error) {
	alpha0, err := budgetAlpha(alphaK, numCollapses)
	if err != nil {
		return nil, err
	}
	return NewArray(alpha0, maxBuckets)
}

// budgetAlpha returns the α₀ that deteriorates to alphaK after
// numCollapses−1 collapses.
func budgetAlpha(alphaK float64, numCollapses int) (float64, error) {
	if !(alphaK > 0 && alphaK < 1) {
		return 0, fmt.Errorf("uddsketch: alpha must be in (0,1), got %v", alphaK)
	}
	if numCollapses < 1 {
		return 0, fmt.Errorf("uddsketch: numCollapses must be >= 1, got %d", numCollapses)
	}
	return math.Tanh(math.Atanh(alphaK) / math.Pow(2, float64(numCollapses-1))), nil
}

func newSketch(alpha0 float64, maxBuckets int, dense bool) (*Sketch, error) {
	if !(alpha0 > 0 && alpha0 < 1) {
		return nil, fmt.Errorf("uddsketch: alpha must be in (0,1), got %v", alpha0)
	}
	if maxBuckets < 2 {
		return nil, fmt.Errorf("uddsketch: need at least 2 buckets, got %d", maxBuckets)
	}
	s := &Sketch{
		initAlpha:  alpha0,
		maxBuckets: maxBuckets,
		indexer:    indexerCubic,
		dense:      dense,
		min:        math.Inf(1),
		max:        math.Inf(-1),
	}
	s.positive, s.negative = s.newStore(), s.newStore()
	s.setAlpha(alpha0)
	s.multiplier = initMultiplier(s.gamma)
	return s, nil
}

// newStore returns an empty store of the sketch's kind.
func (s *Sketch) newStore() bucketStore {
	if s.dense {
		return ddsketch.NewDenseStore()
	}
	return ddsketch.NewSparseStore()
}

func (s *Sketch) setAlpha(alpha float64) {
	s.alpha = alpha
	s.gamma = (1 + alpha) / (1 - alpha)
	s.logGamma = math.Log(s.gamma)
}

// Name implements sketch.Sketch.
func (s *Sketch) Name() string { return "uddsketch" }

// Alpha returns the *current* relative-error guarantee (grows with each
// collapse).
func (s *Sketch) Alpha() float64 { return s.alpha }

// InitialAlpha returns the α₀ the sketch started from.
func (s *Sketch) InitialAlpha() float64 { return s.initAlpha }

// Gamma returns the current bucket growth factor.
func (s *Sketch) Gamma() float64 { return s.gamma }

// Collapses reports how many uniform collapse operations have run.
func (s *Sketch) Collapses() int { return s.collapses }

// MaxBuckets returns the configured bucket budget.
func (s *Sketch) MaxBuckets() int { return s.maxBuckets }

// UseLegacyLogIndexer switches an *empty* sketch to the exact-log
// indexer retained for pre-fast-indexer envelopes — for ablation
// benchmarks and cross-checks. Panics once the sketch holds data, since
// already-assigned buckets would change meaning.
func (s *Sketch) UseLegacyLogIndexer() {
	if s.Count() != 0 {
		panic("uddsketch: cannot change indexer of a non-empty sketch")
	}
	s.indexer = indexerLog
}

// minIndexable is the smallest magnitude this sketch can bucket: the
// cubic indexer needs exact exponent extraction (no subnormals), the
// legacy indexer only needs the index computation not to underflow.
func (s *Sketch) minIndexable() float64 {
	if s.indexer == indexerCubic {
		return fastlog.MinIndexable
	}
	return math.Exp(float64(math.MinInt32+1) * s.logGamma)
}

//sketch:hotpath
func (s *Sketch) index(x float64) int {
	if s.indexer == indexerCubic {
		return int(math.Ceil(fastlog.Log2Cubic(x) * s.multiplier))
	}
	return int(math.Ceil(math.Log(x) / s.logGamma))
}

func (s *Sketch) value(i int) float64 {
	if s.indexer == indexerCubic {
		lo := fastlog.Log2CubicInverse((float64(i) - 1) / s.multiplier)
		hi := fastlog.Log2CubicInverse(float64(i) / s.multiplier)
		// Harmonic midpoint in the overflow-safe form — the product
		// lo·hi overflows past ~1e154. An overflowed upper bound stays
		// +Inf (not Inf/Inf = NaN) so clamp lands on max or min.
		if math.IsInf(hi, 1) {
			return hi
		}
		return 2 * (hi / (1 + hi/lo))
	}
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Insert implements sketch.Sketch. NaNs are ignored; zeros and values too
// small to index are counted exactly.
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
	case x > 0 && x >= s.minIndexable():
		s.positive.Add(s.index(x), int64(n))
	case x < 0 && -x >= s.minIndexable():
		s.negative.Add(s.index(-x), int64(n))
	default:
		s.zeroCnt += int64(n)
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	s.enforceBudget()
}

// enforceBudget collapses until the live buckets fit maxBuckets.
func (s *Sketch) enforceBudget() {
	if s.NonEmptyBuckets() > s.maxBuckets {
		for s.NonEmptyBuckets() > s.maxBuckets {
			s.uniformCollapse()
		}
		s.assertInvariants("collapse")
	}
}

// uniformCollapse merges every adjacent (odd, even) index pair into
// ⌈i/2⌉, squares γ, and updates the error guarantee α ← 2α/(1+α²).
func (s *Sketch) uniformCollapse() {
	s.positive.CollapseUniform()
	s.negative.CollapseUniform()
	s.setAlpha(2 * s.alpha / (1 + s.alpha*s.alpha))
	// Halving is exact in floating point, so the cubic indexer's bucket
	// boundaries after the collapse are exactly the merged pairs'.
	s.multiplier /= 2
	s.collapses++
	if metrics != nil {
		// A uniform collapse is both a store collapse and an α
		// deterioration — UDDSketch degrades its guarantee on every one.
		metrics.Collapses.Inc()
		metrics.AlphaDeteriorations.Inc()
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
}

// Count implements sketch.Sketch.
func (s *Sketch) Count() uint64 {
	return uint64(s.positive.Total() + s.negative.Total() + s.zeroCnt)
}

// Quantile implements sketch.Sketch.
func (s *Sketch) Quantile(q float64) (float64, error) {
	if err := sketch.CheckQuantile(q); err != nil {
		return 0, err
	}
	if s.Count() == 0 {
		return 0, sketch.ErrEmpty
	}
	out, err := s.QuantileAll([]float64{q})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// storeTarget is one batched rank target: the store scan resolves it at
// the first bucket whose cumulative count exceeds want; pos is its slot
// in the output.
type storeTarget struct {
	want int64
	pos  int
}

// QuantileAll implements sketch.MultiQuantiler: each rank target is
// mapped to its store (negative / zero / positive), and one ascending
// scan of each touched store resolves all of that store's targets in
// ascending rank order — instead of one full store walk per quantile.
func (s *Sketch) QuantileAll(qs []float64) ([]float64, error) {
	count := int64(s.Count())
	if err := sketch.ValidateQuantiles(qs, count == 0); err != nil {
		return nil, err
	}
	negTotal := s.negative.Total()
	out := make([]float64, len(qs))
	var negT, posT []storeTarget
	for i, q := range qs {
		rank := min(max(int64(math.Ceil(q*float64(count))), 1), count)
		switch {
		case rank <= negTotal:
			negT = append(negT, storeTarget{negTotal - rank, i})
		case rank <= negTotal+s.zeroCnt:
			out[i] = 0
		default:
			posT = append(posT, storeTarget{rank - negTotal - s.zeroCnt - 1, i})
		}
	}
	// The negative store holds magnitudes, so its ascending scan walks
	// values downward from zero and resolves ranks counted from the top
	// of the negatives.
	s.resolve(s.negative, negT, out, -1, s.min)
	s.resolve(s.positive, posT, out, 1, s.max)
	return out, nil
}

// resolve answers targets from one ascending scan of st. sign mirrors
// the negative store's magnitudes; fallback answers targets beyond the
// last bucket.
func (s *Sketch) resolve(st bucketStore, ts []storeTarget, out []float64, sign, fallback float64) {
	if len(ts) == 0 {
		return
	}
	slices.SortFunc(ts, func(a, b storeTarget) int { return cmp.Compare(a.want, b.want) })
	k := 0
	var cum int64
	st.ForEach(func(i int, c int64) bool {
		cum += c
		for k < len(ts) && cum > ts[k].want {
			out[ts[k].pos] = s.clamp(sign * s.value(i))
			k++
		}
		return k < len(ts)
	})
	for ; k < len(ts); k++ {
		out[ts[k].pos] = s.clamp(fallback)
	}
}

func (s *Sketch) clamp(x float64) float64 {
	if x < s.min {
		return s.min
	}
	if x > s.max {
		return s.max
	}
	return x
}

// Rank implements sketch.Sketch.
func (s *Sketch) Rank(x float64) (float64, error) {
	count := s.Count()
	if count == 0 {
		return 0, sketch.ErrEmpty
	}
	var le int64
	if x >= 0 {
		le = s.negative.Total() + s.zeroCnt
		if x > 0 {
			xi := s.index(x)
			s.positive.ForEachUnordered(func(i int, c int64) {
				if i <= xi {
					le += c
				}
			})
		}
	} else {
		xi := s.index(-x)
		s.negative.ForEachUnordered(func(i int, c int64) {
			if i >= xi {
				le += c
			}
		})
	}
	return float64(le) / float64(count), nil
}

// Merge implements sketch.Sketch (the fusion algorithm of Cafaro et al.):
// both sides are brought to the larger collapse count so they share γ,
// the aligned bucket counts are added, and a final uniform collapse runs
// if the bucket budget is exceeded. A less collapsed receiver collapses
// in place; a less collapsed source is folded on the fly (see fold), so
// other is neither copied nor modified. The two sides' stores may differ
// in kind; the receiver keeps its own.
func (s *Sketch) Merge(other sketch.Sketch) error {
	o, err := s.mergeable(other)
	if err != nil {
		return err
	}
	s.fold(o, 1)
	return nil
}

// mergeable returns other as a *Sketch when its counts can be added to
// the receiver's: same initial α and the same indexer.
func (s *Sketch) mergeable(other sketch.Sketch) (*Sketch, error) {
	o, ok := other.(*Sketch)
	if !ok {
		return nil, fmt.Errorf("%w: cannot merge %s into uddsketch", sketch.ErrIncompatible, other.Name())
	}
	if math.Abs(o.initAlpha-s.initAlpha) > 1e-15 {
		return nil, fmt.Errorf("%w: initial alpha mismatch %v vs %v", sketch.ErrIncompatible, s.initAlpha, o.initAlpha)
	}
	if o.indexer != s.indexer {
		// Different indexers bucket at different boundaries; adding their
		// counts index-by-index would silently corrupt both guarantees.
		return nil, fmt.Errorf("%w: indexer mismatch %d vs %d", sketch.ErrIncompatible, s.indexer, o.indexer)
	}
	return o, nil
}

// fold adds o's counts into s, each count c entering as scaleCount(c,
// g) (c itself when g is 1). The receiver first collapses up to o's
// collapse count. If o is the less collapsed side, each of its indexes
// i moves straight to ⌈i/2^d⌉, d being the collapse gap: d uniform
// collapses of o's store, without building it. Integer sums do not
// depend on the order buckets arrive in, and a dense receiver sees its
// first new index in each store in the same ascending order as from a
// collapsed copy, so it grows the same array.
func (s *Sketch) fold(o *Sketch, g float64) {
	before := s.Count()
	for s.collapses < o.collapses {
		s.uniformCollapse()
	}
	var added int64
	if gap := s.collapses - o.collapses; gap == 0 && g == 1 {
		// Aligned plain merge: the buckets go in as they are.
		o.positive.ForEachUnordered(s.positive.Add)
		o.negative.ForEachUnordered(s.negative.Add)
		added = o.positive.Total() + o.negative.Total()
	} else {
		f := &bucketFold{dst: s.positive, gap: gap, g: g}
		add := f.add
		o.positive.ForEachUnordered(add)
		f.dst = s.negative
		o.negative.ForEachUnordered(add)
		added = f.added
	}
	z := scaleCount(o.zeroCnt, g)
	s.zeroCnt += z
	added += z
	// A scaled source whose counts all rounded away adds no bounds: the
	// reference path's ScaleCount resets min/max with the counts.
	if g == 1 || added > 0 {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	s.enforceBudget()
	if metrics != nil {
		metrics.PeakBytes.Max(int64(s.MemoryBytes()))
	}
	s.assertCount("merge", before+uint64(added))
}

// bucketFold is fold's per-bucket step for a shifted or scaled source.
// One value serves both stores, so the walk allocates no more than the
// aligned path's two method values.
type bucketFold struct {
	dst   bucketStore
	gap   int
	g     float64
	added int64
}

func (f *bucketFold) add(i int, c int64) {
	if c = scaleCount(c, f.g); c > 0 {
		f.dst.Add(ceilShift(i, f.gap), c)
		f.added += c
	}
}

// ceilShift is ⌈i/2^d⌉: d repeated uniform collapses of index i, each
// ⌈i/2⌉. The arithmetic shift floors -i/2^d.
func ceilShift(i, d int) int {
	return -(-i >> uint(d))
}

// NonEmptyBuckets reports the live bucket count across both stores.
func (s *Sketch) NonEmptyBuckets() int {
	return s.positive.NonEmptyBuckets() + s.negative.NonEmptyBuckets()
}

// Footprint implements sketch.Footprinter. The stores hold no hidden
// capacity beyond what NumbersHeld accounts (3 numbers per map bucket,
// every dense array slot), so the live footprint is MemoryBytes itself.
func (s *Sketch) Footprint() int { return s.MemoryBytes() }

// maxDegradeCollapses caps the collapse counter at its serialization
// bound (the counter shares its wire word with the indexer and store
// flags; α has long saturated at 1 by then anyway).
const maxDegradeCollapses = 4096

// Degrade implements sketch.Degrader: run one extra uniform collapse —
// exactly the sketch's native budget mechanism (Epicoco et al.),
// merging every adjacent bucket pair and deteriorating the guarantee
// α ← 2α/(1+α²). Merge already aligns differing collapse counts, so a
// degraded sketch stays mergeable with any sketch of the same initial
// α. Refused when fewer than 4 buckets are live (a collapse would
// degrade α while freeing almost nothing).
func (s *Sketch) Degrade() (int, error) {
	if s.NonEmptyBuckets() < 4 || s.collapses >= maxDegradeCollapses {
		return 0, sketch.ErrNotDegradable
	}
	before := s.Footprint()
	s.uniformCollapse()
	s.assertInvariants("degrade")
	return max(before-s.Footprint(), 0), nil
}

// AccuracyBound implements sketch.AccuracyBounder: the sketch's current
// relative accuracy α — the exact post-collapse guarantee, which grows
// with every Degrade and propagates through merges (the merged sketch
// carries the worse collapse count's α).
func (s *Sketch) AccuracyBound() float64 { return s.alpha }

// MemoryBytes implements sketch.Sketch with the paper's accounting
// (Sec 4.3): the stores' NumbersHeld — for the map store a map index, a
// bucket index and a count per bucket — plus fixed bookkeeping.
func (s *Sketch) MemoryBytes() int {
	return 8 * (s.positive.NumbersHeld() + s.negative.NumbersHeld() + 6)
}

// Reset implements sketch.Sketch.
func (s *Sketch) Reset() {
	s.positive.Reset()
	s.negative.Reset()
	s.zeroCnt = 0
	s.collapses = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
	s.setAlpha(s.initAlpha)
	s.multiplier = initMultiplier(s.gamma)
}

// MarshalBinary implements encoding.BinaryMarshaler. The indexer and
// store kinds ride in the high bits of the collapse counter (see
// indexerFlagCubic) so that envelopes written before either existed
// decode as exact-log map-store sketches without a version bump or a
// length change.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := sketch.NewWriter(64 + 16*s.NonEmptyBuckets())
	w.Header(sketch.TagUDDSketch)
	w.F64(s.initAlpha)
	w.U32(uint32(s.maxBuckets))
	flags := uint32(0)
	if s.indexer == indexerCubic {
		flags |= indexerFlagCubic
	}
	if s.dense {
		flags |= storeFlagDense
	}
	w.U32(uint32(s.collapses) | flags)
	w.I64(s.zeroCnt)
	w.I64(int64(s.Count()))
	w.F64(s.min)
	w.F64(s.max)
	for _, st := range []bucketStore{s.positive, s.negative} {
		w.U32(uint32(st.NonEmptyBuckets()))
		st.ForEach(func(i int, c int64) bool {
			w.I64(int64(i))
			w.I64(c)
			return true
		})
	}
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := sketch.NewReader(data)
	if err := r.Header(sketch.TagUDDSketch); err != nil {
		return err
	}
	initAlpha := r.F64()
	maxBuckets := int(r.U32())
	rawCollapses := r.U32()
	collapses := int(rawCollapses &^ (indexerFlagCubic | storeFlagDense))
	zeroCnt := r.I64()
	count := r.I64()
	minV := r.F64()
	maxV := r.F64()
	if r.Err() != nil {
		return r.Err()
	}
	// Bound decoded parameters: α saturates after ~60 collapses, and the
	// bucket budget never exceeds a few thousand in any valid sketch.
	if collapses > maxDegradeCollapses || maxBuckets > 1<<24 {
		return sketch.ErrCorrupt
	}
	if zeroCnt < 0 || count < 0 || math.IsNaN(minV) || math.IsNaN(maxV) {
		return sketch.ErrCorrupt
	}
	ns, err := newSketch(initAlpha, maxBuckets, rawCollapses&storeFlagDense != 0)
	if err != nil {
		return sketch.ErrCorrupt
	}
	for i := 0; i < collapses; i++ {
		ns.setAlpha(2 * ns.alpha / (1 + ns.alpha*ns.alpha))
	}
	ns.collapses = collapses
	ns.zeroCnt = zeroCnt
	ns.min = minV
	ns.max = maxV
	for _, st := range []bucketStore{ns.positive, ns.negative} {
		n := int(r.U32())
		for i := 0; i < n; i++ {
			idx := r.I64()
			c := r.I64()
			if r.Err() != nil {
				return r.Err()
			}
			// Valid sketches never hold empty or negative buckets, and a
			// dense store must not be made to allocate an index span no
			// float64 input can produce.
			if c <= 0 || ns.dense && (idx > 1<<26 || idx < -(1<<26)) {
				return sketch.ErrCorrupt
			}
			st.Add(int(idx), c)
		}
	}
	if r.Err() != nil {
		return r.Err()
	}
	if r.Remaining() != 0 {
		return sketch.ErrCorrupt
	}
	// High bit of the collapse counter carries the indexer kind;
	// envelopes from before the fast indexer always have it clear, so
	// they decode as exact-log sketches and their bucket boundaries keep
	// meaning what they meant when written.
	if rawCollapses&indexerFlagCubic == 0 {
		ns.indexer = indexerLog
	}
	// Ldexp is the k-fold exact halving the collapses performed.
	ns.multiplier = math.Ldexp(ns.multiplier, -collapses)
	// Structural validation: bucket sums must reproduce the serialized
	// count, the budget must hold, and a non-empty sketch needs ordered
	// bounds — anything else is corruption, not a decodable sketch.
	if int64(ns.Count()) != count || ns.NonEmptyBuckets() > ns.maxBuckets {
		return sketch.ErrCorrupt
	}
	if count > 0 && !(ns.min <= ns.max) {
		return sketch.ErrCorrupt
	}
	ns.assertInvariants("unmarshal")
	*s = *ns
	return nil
}
