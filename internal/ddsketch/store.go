package ddsketch

import "sort"

// Store holds bucket counts keyed by integer index. DDSketch's behaviour
// under bounded memory depends on the store implementation, and the study
// calls those differences out explicitly (array-backed dense store vs the
// collapsing variant, Sec 4.3), so the store is pluggable.
type Store interface {
	// Add increments bucket index by count (count > 0).
	Add(index int, count int64)
	// Total returns the sum of all bucket counts.
	Total() int64
	// IsEmpty reports whether the store holds no counts.
	IsEmpty() bool
	// MinIndex and MaxIndex return the smallest/largest non-empty bucket
	// index; they must not be called on an empty store.
	MinIndex() int
	MaxIndex() int
	// ForEach visits non-empty buckets in ascending index order, stopping
	// early if fn returns false.
	ForEach(fn func(index int, count int64) bool)
	// NonEmptyBuckets returns the number of buckets holding a count.
	NonEmptyBuckets() int
	// NumbersHeld reports the structural size in 8-byte numbers (array
	// slots for dense stores, map entries × 3 for the sparse store),
	// implementing the paper's Table 3 accounting.
	NumbersHeld() int
	// CollapseCount reports how many bucket-collapse operations the store
	// has performed (0 for unbounded stores).
	CollapseCount() int
	// Clone returns a deep copy.
	Clone() Store
	// Reset drops all counts, keeping configuration.
	Reset()
}

// initialDenseBuckets matches the paper's observation that the unbounded
// dense store "would initially create a count array of 64 buckets, and
// expand the array based on the range of the values observed" (Sec 4.3).
const initialDenseBuckets = 64

// DenseStore is the unbounded array-backed store: a contiguous count array
// whose first slot corresponds to bucket index `offset`. Growth re-centers
// the array around the observed index range.
type DenseStore struct {
	counts []int64
	offset int
	total  int64
	live   int // non-empty slots, so NonEmptyBuckets is O(1)
	minIdx int
	maxIdx int
}

// NewDenseStore returns an empty unbounded dense store.
func NewDenseStore() *DenseStore {
	return &DenseStore{minIdx: int(^uint(0)>>1) - 1, maxIdx: -(int(^uint(0)>>1) - 1)}
}

// Add implements Store.
func (s *DenseStore) Add(index int, count int64) {
	if count <= 0 {
		return
	}
	s.ensure(index)
	if s.counts[index-s.offset] == 0 {
		s.live++
	}
	s.counts[index-s.offset] += count
	s.total += count
	if index < s.minIdx {
		s.minIdx = index
	}
	if index > s.maxIdx {
		s.maxIdx = index
	}
}

// AddOnes increments each listed bucket by one — the batched-insert hot
// path. The index range is scanned first so the backing array grows at
// most twice for the whole batch (once per range end) instead of
// per-element; the increments themselves are then direct array ops.
// Equivalent to calling Add(i, 1) for each index, except that the
// array's spare capacity (and hence NumbersHeld) may differ slightly
// from the per-element growth sequence; the held counts are identical.
//
//sketch:hotpath
func (s *DenseStore) AddOnes(indexes []int) {
	if len(indexes) == 0 {
		return
	}
	lo, hi := indexes[0], indexes[0]
	for _, i := range indexes[1:] {
		if i < lo {
			lo = i
		}
		if i > hi {
			hi = i
		}
	}
	s.ensure(lo)
	s.ensure(hi)
	counts, offset := s.counts, s.offset
	live := s.live
	for _, i := range indexes {
		if counts[i-offset] == 0 {
			live++
		}
		counts[i-offset]++
	}
	s.live = live
	s.total += int64(len(indexes))
	if lo < s.minIdx {
		s.minIdx = lo
	}
	if hi > s.maxIdx {
		s.maxIdx = hi
	}
}

// ensure grows the backing array to include index.
func (s *DenseStore) ensure(index int) {
	if len(s.counts) == 0 {
		s.counts = make([]int64, initialDenseBuckets)
		s.offset = index - initialDenseBuckets/2
		return
	}
	pos := index - s.offset
	if pos >= 0 && pos < len(s.counts) {
		return
	}
	// Grow to cover both the current range and the new index, rounded up
	// to the next chunk. The chunked growth (rather than doubling) keeps
	// the array close to the actually observed index span, matching the
	// reference implementation's space behaviour the paper measures in
	// Sec 4.3: the range grows only logarithmically with the data, so
	// re-allocation stays rare.
	lo, hi := s.offset, s.offset+len(s.counts)-1
	if index < lo {
		lo = index
	}
	if index > hi {
		hi = index
	}
	span := hi - lo + 1
	n := (span + initialDenseBuckets - 1) / initialDenseBuckets * initialDenseBuckets
	grown := make([]int64, n)
	newOffset := lo - (n-span)/2
	copy(grown[s.offset-newOffset:], s.counts)
	s.counts = grown
	s.offset = newOffset
}

// Total implements Store.
func (s *DenseStore) Total() int64 { return s.total }

// IsEmpty implements Store.
func (s *DenseStore) IsEmpty() bool { return s.total == 0 }

// MinIndex implements Store.
func (s *DenseStore) MinIndex() int { return s.minIdx }

// MaxIndex implements Store.
func (s *DenseStore) MaxIndex() int { return s.maxIdx }

// ForEach implements Store.
func (s *DenseStore) ForEach(fn func(index int, count int64) bool) {
	if s.total == 0 {
		return
	}
	for i := s.minIdx; i <= s.maxIdx; i++ {
		c := s.counts[i-s.offset]
		if c != 0 {
			if !fn(i, c) {
				return
			}
		}
	}
}

// ForEachUnordered visits every non-empty bucket (in ascending order,
// which is one valid order).
func (s *DenseStore) ForEachUnordered(fn func(index int, count int64)) {
	s.ForEach(func(i int, c int64) bool { fn(i, c); return true })
}

// NonEmptyBuckets implements Store.
func (s *DenseStore) NonEmptyBuckets() int { return s.live }

// CollapseUniform merges every bucket pair (2j−1, 2j) into bucket j, so
// index i moves to ⌈i/2⌉: UDDSketch's uniform collapse. The array is
// rebuilt over the halved span, so memory shrinks with it.
func (s *DenseStore) CollapseUniform() {
	if s.total == 0 {
		return
	}
	lo, hi := ceilDiv2(s.minIdx), ceilDiv2(s.maxIdx)
	span := hi - lo + 1
	n := (span + initialDenseBuckets - 1) / initialDenseBuckets * initialDenseBuckets
	folded := make([]int64, n)
	offset := lo - (n-span)/2
	live := 0
	for i := s.minIdx; i <= s.maxIdx; i++ {
		c := s.counts[i-s.offset]
		if c == 0 {
			continue
		}
		p := ceilDiv2(i) - offset
		if folded[p] == 0 {
			live++
		}
		folded[p] += c
	}
	s.counts, s.offset, s.live = folded, offset, live
	s.minIdx, s.maxIdx = lo, hi
}

// ceilDiv2 computes ⌈i/2⌉ for signed i.
func ceilDiv2(i int) int {
	if i > 0 {
		return (i + 1) / 2
	}
	return i / 2 // Go truncation toward zero == ceil for negatives
}

// NumbersHeld implements Store.
func (s *DenseStore) NumbersHeld() int {
	// The backing array plus offset/min/max/total bookkeeping.
	return len(s.counts) + 4
}

// CollapseCount implements Store.
func (s *DenseStore) CollapseCount() int { return 0 }

// Clone implements Store.
func (s *DenseStore) Clone() Store {
	c := *s
	c.counts = make([]int64, len(s.counts))
	copy(c.counts, s.counts)
	return &c
}

// Reset implements Store.
func (s *DenseStore) Reset() {
	*s = *NewDenseStore()
}

// CollapsingLowestDenseStore bounds the bucket count at MaxBuckets by
// collapsing the lowest-indexed buckets into one when the range would
// exceed the bound — DDSketch's bounded-memory variant (Sec 3.3), which
// sacrifices the accuracy guarantee of the lowest quantiles only.
type CollapsingLowestDenseStore struct {
	DenseStore
	maxBuckets int
	collapses  int
}

// NewCollapsingLowestDenseStore returns a bounded store collapsing its
// lowest buckets when more than maxBuckets distinct indices are needed.
func NewCollapsingLowestDenseStore(maxBuckets int) *CollapsingLowestDenseStore {
	if maxBuckets < 2 {
		maxBuckets = 2
	}
	return &CollapsingLowestDenseStore{DenseStore: *NewDenseStore(), maxBuckets: maxBuckets}
}

// MaxBuckets returns the configured bucket bound.
func (s *CollapsingLowestDenseStore) MaxBuckets() int { return s.maxBuckets }

// Add implements Store.
func (s *CollapsingLowestDenseStore) Add(index int, count int64) {
	if count <= 0 {
		return
	}
	if s.total == 0 {
		s.DenseStore.Add(index, count)
		return
	}
	switch {
	case index > s.maxIdx && index-s.minIdx+1 > s.maxBuckets:
		// New high bucket forces the low end to fold up.
		s.collapseLowestTo(index - s.maxBuckets + 1)
		s.DenseStore.Add(index, count)
	case index < s.minIdx && s.maxIdx-index+1 > s.maxBuckets:
		// Value below the representable range lands in the lowest bucket.
		s.collapses++
		if metrics != nil {
			metrics.Collapses.Inc()
		}
		s.DenseStore.Add(s.maxIdx-s.maxBuckets+1, count)
	default:
		s.DenseStore.Add(index, count)
	}
}

// collapseLowestTo folds every bucket below newMin into bucket newMin.
func (s *CollapsingLowestDenseStore) collapseLowestTo(newMin int) {
	if newMin <= s.minIdx {
		return
	}
	s.collapses++
	if metrics != nil {
		metrics.Collapses.Inc()
	}
	var folded int64
	for i := s.minIdx; i < newMin && i <= s.maxIdx; i++ {
		pos := i - s.offset
		if s.counts[pos] != 0 {
			s.live--
		}
		folded += s.counts[pos]
		s.counts[pos] = 0
	}
	if folded > 0 {
		s.ensure(newMin)
		if s.counts[newMin-s.offset] == 0 {
			s.live++
		}
		s.counts[newMin-s.offset] += folded
	}
	if newMin > s.minIdx {
		s.minIdx = newMin
	}
	if s.maxIdx < s.minIdx {
		s.maxIdx = s.minIdx
	}
}

// AddOnes shadows the promoted DenseStore fast path: which buckets a
// collapsing store folds depends on the order indices arrive, so bulk
// increments must go through the collapse-aware Add one at a time.
func (s *CollapsingLowestDenseStore) AddOnes(indexes []int) {
	for _, i := range indexes {
		s.Add(i, 1)
	}
}

// CollapseCount implements Store.
func (s *CollapsingLowestDenseStore) CollapseCount() int { return s.collapses }

// Clone implements Store.
func (s *CollapsingLowestDenseStore) Clone() Store {
	c := *s
	c.counts = make([]int64, len(s.counts))
	copy(c.counts, s.counts)
	return &c
}

// Reset implements Store.
func (s *CollapsingLowestDenseStore) Reset() {
	mb := s.maxBuckets
	*s = *NewCollapsingLowestDenseStore(mb)
}

// SparseStore keeps counts in a hash map; memory scales with non-empty
// buckets instead of index range, at the cost of slower iteration.
type SparseStore struct {
	counts map[int]int64
	total  int64
}

// NewSparseStore returns an empty sparse store.
func NewSparseStore() *SparseStore {
	return &SparseStore{counts: make(map[int]int64)}
}

// Add implements Store.
func (s *SparseStore) Add(index int, count int64) {
	if count <= 0 {
		return
	}
	s.counts[index] += count
	s.total += count
}

// Total implements Store.
func (s *SparseStore) Total() int64 { return s.total }

// IsEmpty implements Store.
func (s *SparseStore) IsEmpty() bool { return s.total == 0 }

// MinIndex implements Store.
func (s *SparseStore) MinIndex() int {
	first := true
	minIdx := 0
	for i := range s.counts {
		if first || i < minIdx {
			minIdx = i
			first = false
		}
	}
	return minIdx
}

// MaxIndex implements Store.
func (s *SparseStore) MaxIndex() int {
	first := true
	maxIdx := 0
	for i := range s.counts {
		if first || i > maxIdx {
			maxIdx = i
			first = false
		}
	}
	return maxIdx
}

// ForEach implements Store.
func (s *SparseStore) ForEach(fn func(index int, count int64) bool) {
	keys := make([]int, 0, len(s.counts))
	for i := range s.counts {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		if !fn(i, s.counts[i]) {
			return
		}
	}
}

// ForEachUnordered visits every non-empty bucket in map order, without
// ForEach's key sort: the walk for order-independent folds (merges,
// scaling, sums).
func (s *SparseStore) ForEachUnordered(fn func(index int, count int64)) {
	for i, c := range s.counts {
		fn(i, c)
	}
}

// NonEmptyBuckets implements Store.
func (s *SparseStore) NonEmptyBuckets() int { return len(s.counts) }

// CollapseUniform merges every bucket pair (2j−1, 2j) into bucket j, so
// index i moves to ⌈i/2⌉: UDDSketch's uniform collapse. The folded map
// is sized for the pre-collapse bucket count, not the roughly half that
// survive: a bucket-budgeted sketch collapses when it overflows its
// budget, so it refills the map up to that count without a rehash.
func (s *SparseStore) CollapseUniform() {
	folded := make(map[int]int64, len(s.counts))
	for i, c := range s.counts {
		folded[ceilDiv2(i)] += c
	}
	s.counts = folded
}

// NumbersHeld implements Store.
func (s *SparseStore) NumbersHeld() int {
	// Key + count + map bookkeeping per entry, matching the paper's
	// three-numbers-per-bucket accounting for map-backed stores.
	return 3*len(s.counts) + 1
}

// CollapseCount implements Store.
func (s *SparseStore) CollapseCount() int { return 0 }

// Clone implements Store.
func (s *SparseStore) Clone() Store {
	c := &SparseStore{counts: make(map[int]int64, len(s.counts)), total: s.total}
	for i, v := range s.counts {
		c.counts[i] = v
	}
	return c
}

// Reset implements Store. The map keeps its capacity, so refilling a
// reset store does not rehash.
func (s *SparseStore) Reset() {
	clear(s.counts)
	s.total = 0
}
