// Package sketch defines the common interface implemented by every
// quantile sketch in this repository, together with shared error values
// and small helpers used by more than one implementation.
//
// The interface mirrors the operations the EDBT 2023 study measures:
// Insert (stream consumption), Quantile and Rank (queries), Merge
// (distributed aggregation), and MemoryBytes (the structural space
// accounting of the paper's Table 3).
package sketch

import (
	"encoding"
	"errors"
	"fmt"
)

// Common errors returned by sketch operations.
var (
	// ErrEmpty is returned when querying a sketch that has consumed no data.
	ErrEmpty = errors.New("sketch: empty sketch")
	// ErrInvalidQuantile is returned when q is outside (0, 1].
	ErrInvalidQuantile = errors.New("sketch: quantile must be in (0, 1]")
	// ErrIncompatible is returned when merging sketches whose types or
	// parameters do not permit a lossless merge.
	ErrIncompatible = errors.New("sketch: incompatible sketches")
	// ErrUnsupportedValue is returned when a sketch cannot represent an
	// inserted value (for example NaN, or a non-positive value in a
	// log-mapped sketch configured for positive data only).
	ErrUnsupportedValue = errors.New("sketch: unsupported value")
	// ErrCorrupt is returned when deserializing malformed bytes.
	ErrCorrupt = errors.New("sketch: corrupt serialized data")
	// ErrNotDegradable is returned by Degrade when a sketch cannot shrink
	// any further: either its accuracy knob is already at the floor, or
	// the structure is fixed-size by construction (moments).
	ErrNotDegradable = errors.New("sketch: not degradable")
)

// Sketch is the uniform interface over all quantile sketches evaluated in
// the study. Implementations are single-writer: callers must provide
// external synchronization to share one sketch across goroutines.
type Sketch interface {
	// Insert adds one observation to the sketch.
	Insert(x float64)

	// Quantile returns an estimate of the q-quantile of the inserted data
	// for q in (0, 1]. It returns ErrEmpty if nothing was inserted and
	// ErrInvalidQuantile for out-of-range q.
	Quantile(q float64) (float64, error)

	// Rank returns an estimate of the fraction of inserted values that are
	// less than or equal to x. It returns ErrEmpty on an empty sketch.
	Rank(x float64) (float64, error)

	// Merge folds other into the receiver so that the receiver summarizes
	// the union of both input streams. Implementations return
	// ErrIncompatible when other has a different concrete type or
	// incompatible parameters. other is not modified.
	Merge(other Sketch) error

	// Count reports the number of values inserted (including via merges).
	Count() uint64

	// MemoryBytes reports the structural size of the sketch: the number of
	// numbers (counters, samples, moments) retained, at 8 bytes each, plus
	// fixed per-structure overhead. It deliberately measures what the
	// paper's Table 3 measures rather than process RSS.
	MemoryBytes() int

	// Name returns a short stable identifier ("kll", "ddsketch", ...).
	Name() string

	// Reset restores the sketch to its freshly-constructed state,
	// preserving configuration parameters.
	Reset()

	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// Quantiler is the read-only query surface of a sketch: everything a
// consumer needs to answer quantile and rank questions, without the
// mutating half of the Sketch interface. Every Sketch is a Quantiler.
// The concurrent layer (internal/concurrent) hands out epoch-stamped
// snapshots as Quantilers so readers cannot accidentally mutate shared
// state.
type Quantiler interface {
	// Quantile returns an estimate of the q-quantile for q in (0, 1].
	Quantile(q float64) (float64, error)
	// Rank returns an estimate of the fraction of values ≤ x.
	Rank(x float64) (float64, error)
	// Count reports the number of values summarized.
	Count() uint64
}

// CheckQuantile validates q, returning ErrInvalidQuantile when q lies
// outside (0, 1]. Shared by all implementations so the boundary behaviour
// is identical across sketches.
func CheckQuantile(q float64) error {
	if !(q > 0 && q <= 1) {
		return fmt.Errorf("%w: got %v", ErrInvalidQuantile, q)
	}
	return nil
}

// Builder constructs a fresh sketch with fixed configuration. The harness
// uses builders so every window/run starts from an identically configured
// empty sketch.
type Builder func() Sketch

// Quantiles evaluates s at each q in qs, returning estimates in the same
// order. It stops at the first error. Sketches implementing
// MultiQuantiler answer the whole batch through their native kernel;
// everything else falls back to one Quantile call per q. It accepts any
// Quantiler (full sketches and read-only concurrent snapshots alike).
func Quantiles(s Quantiler, qs []float64) ([]float64, error) {
	if m, ok := s.(MultiQuantiler); ok {
		return m.QuantileAll(qs)
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, err := s.Quantile(q)
		if err != nil {
			return nil, fmt.Errorf("quantile %v: %w", q, err)
		}
		out[i] = v
	}
	return out, nil
}

// MultiQuantiler is implemented by sketches with a native batched query
// kernel that answers a whole quantile set in one pass: a single CDF
// snapshot / store scan / maxent solve is shared across all targets
// instead of being redone per quantile.
//
// Contract: QuantileAll(qs) must be indistinguishable from calling
// Quantile(q) for each q in order — bitwise-identical estimates, and on
// failure the same first error (wrapped with its offending quantile,
// exactly as the Quantiles fallback loop wraps it). Only invisible
// scratch state (cached sorted views, solver warm starts, spare slice
// capacity) may differ afterwards. TestQuantileAllEquivalence enforces
// this for every implementation.
type MultiQuantiler interface {
	// QuantileAll returns the estimates for every q of qs in order,
	// equivalent to querying them one at a time.
	QuantileAll(qs []float64) ([]float64, error)
}

// ValidateQuantiles reproduces the error behaviour of a per-q scalar
// query loop for a batched kernel: each q is validated in slice order,
// and an empty sketch fails at the first (valid) q. The returned error
// is wrapped exactly like the Quantiles fallback wraps it, so callers
// cannot distinguish the native path from the loop.
func ValidateQuantiles(qs []float64, empty bool) error {
	for _, q := range qs {
		if err := CheckQuantile(q); err != nil {
			return fmt.Errorf("quantile %v: %w", q, err)
		}
		if empty {
			return fmt.Errorf("quantile %v: %w", q, ErrEmpty)
		}
	}
	return nil
}

// InsertAll inserts every value of xs into s, using the sketch's native
// batch kernel when it implements BatchInserter.
func InsertAll(s Sketch, xs []float64) {
	if b, ok := s.(BatchInserter); ok {
		b.InsertBatch(xs)
		return
	}
	for _, x := range xs {
		s.Insert(x)
	}
}

// BatchInserter is implemented by sketches with a native batched insert
// kernel that amortizes per-element interface-call, bookkeeping and
// bounds-check overhead across a slice of observations.
//
// Contract: InsertBatch(xs) must be indistinguishable from calling
// Insert(x) for each x in order — identical serialized form, count,
// retained samples and query answers, which requires the same
// compaction/collapse trigger points, the same floating-point
// accumulation order, and the same treatment of NaN and unrepresentable
// values. Only invisible scratch state (e.g. a backing array's spare
// capacity) may differ. The stream engine's parallel path relies on
// this equivalence to stay bit-deterministic at any worker count
// (internal/stream), and TestInsertBatchEquivalence enforces it for
// every implementation.
type BatchInserter interface {
	// InsertBatch adds every value of xs, equivalent to inserting them
	// one at a time in order.
	InsertBatch(xs []float64)
}

// CountScaler is implemented by sketches that can rescale their total
// weight by a factor g in [0, 1] — the primitive behind exponential
// time decay, where a window merge down-weights older panes by
// exp(-λ·age) before folding them in (internal/stream).
//
// Contract: after ScaleCount(g) the sketch summarizes approximately the
// same distribution with Count() ≈ g·oldCount, all structural
// invariants intact, and the result is a pure function of the prior
// state and g (no randomness, no iteration-order dependence), so that
// decayed engine runs stay bit-deterministic. g values outside (0, 1)
// are clamped: g ≥ 1 or NaN is a no-op, g ≤ 0 resets the sketch. The
// exact mechanism is per-sketch (sample re-placement for samplers,
// rounded bucket scaling for histograms, exact moment scaling) and
// documented on each implementation.
type CountScaler interface {
	// ScaleCount multiplies the sketch's effective weight by g.
	ScaleCount(g float64)
}

// MergeScaled folds src into dst with src's weight scaled by g — the
// window-assembly step of exponential time decay (internal/stream),
// where an older pane enters each window at its own weight while the
// sealed pane stays exact for the later windows that reference it.
// Receivers implementing ScaledMerger take their native one-pass
// kernel. Everything else takes the reference path: src is cloned
// through MarshalBinary into fresh() and UnmarshalBinary, the clone is
// scaled by ScaleCount(g), and dst merges the clone. Either way, g ≥ 1
// or NaN is a plain Merge.
func MergeScaled(dst, src Sketch, g float64, fresh Builder) error {
	if !(g < 1) {
		return dst.Merge(src)
	}
	if m, ok := dst.(ScaledMerger); ok {
		return m.MergeScaled(src, g)
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		return fmt.Errorf("sketch: scaled merge clone: %w", err)
	}
	clone := fresh()
	if err := clone.UnmarshalBinary(blob); err != nil {
		return fmt.Errorf("sketch: scaled merge clone: %w", err)
	}
	cs, ok := clone.(CountScaler)
	if !ok {
		return fmt.Errorf("%w: %s does not implement CountScaler", ErrIncompatible, clone.Name())
	}
	cs.ScaleCount(g)
	return dst.Merge(clone)
}

// ScaledMerger is implemented by sketches with a native kernel that
// merges another sketch scaled by a weight, without MergeScaled's
// serde clone.
//
// Contract: MergeScaled(other, g) must be indistinguishable from the
// reference path of the MergeScaled helper (serde clone, ScaleCount(g),
// Merge): the same serialized form, Count, Footprint, MemoryBytes,
// AccuracyBound and query answers afterwards, and the same behaviour
// under every later operation, RNG state included. other is not
// modified. The CountScaler clamps carry over: g ≥ 1 or NaN is Merge,
// and g ≤ 0 merges an emptied clone, so only incompatibility errors
// and Merge's side effects of merging an empty sketch remain.
// TestMergeScaledEquivalence enforces this for every implementation.
type ScaledMerger interface {
	// MergeScaled folds other into the receiver with other's weight
	// multiplied by g.
	MergeScaled(other Sketch, g float64) error
}

// Footprinter is implemented by sketches that can report their live
// memory footprint — the bytes actually held right now, including
// allocated-but-unused buffer capacity and reusable scratch — as
// opposed to MemoryBytes, which reports the paper's structural Table 3
// accounting. The memory-budget governor (internal/budget) charges
// sketches by Footprint when available and falls back to MemoryBytes;
// use FootprintOf for that dispatch.
type Footprinter interface {
	// Footprint reports the sketch's current live size in bytes.
	Footprint() int
}

// FootprintOf charges s by its live footprint when it reports one and
// by its structural MemoryBytes otherwise.
func FootprintOf(s Sketch) int {
	if f, ok := s.(Footprinter); ok {
		return f.Footprint()
	}
	return s.MemoryBytes()
}

// Degrader is implemented by sketches that can trade accuracy for
// memory on demand — the per-sketch knob behind the memory-budget
// governor's degradation ladder (internal/budget). Each call performs
// one degradation step: KLL and REQ force-compact to a smaller k,
// DDSketch collapses the lowest-value region of its store, UDDSketch
// runs one extra uniform collapse (α-deterioration, Epicoco et al.),
// and moments — fixed-size by construction — always refuses.
//
// Contract: Degrade either strictly shrinks the sketch and returns the
// bytes freed (freedBytes ≥ 0 as measured by FootprintOf before/after),
// or returns ErrNotDegradable leaving the sketch untouched. Count() is
// conserved exactly, every structural invariant holds afterwards, and
// the result remains mergeable with undegraded sketches of the same
// configuration family (documented per implementation). The step is a
// pure function of the prior state, so budgeted engine runs stay
// deterministic.
type Degrader interface {
	// Degrade performs one accuracy-for-memory degradation step.
	Degrade() (freedBytes int, err error)
}

// AccuracyBounder is implemented by sketches that can report their
// current error guarantee as a single dimensionless number: relative
// value error α for the histogram sketches, an empirical normalized
// rank-error scale for the samplers. The bound grows monotonically as
// the sketch degrades, which is what the stream engine surfaces on
// each WindowResult so consumers can see exactly how much accuracy a
// budget-constrained window gave up.
type AccuracyBounder interface {
	// AccuracyBound reports the sketch's current error bound.
	AccuracyBound() float64
}

// BulkInserter is implemented by sketches that can absorb n identical
// observations in O(1) — the histogram and moment sketches. Sampling
// sketches (KLL, REQ) cannot, since their guarantees depend on seeing
// items individually; use a loop there.
type BulkInserter interface {
	// InsertN adds n occurrences of x.
	InsertN(x float64, n uint64)
}

// InsertRepeated adds n occurrences of x to any sketch, using the O(1)
// path when the sketch supports it.
func InsertRepeated(s Sketch, x float64, n uint64) {
	if b, ok := s.(BulkInserter); ok {
		b.InsertN(x, n)
		return
	}
	for i := uint64(0); i < n; i++ {
		s.Insert(x)
	}
}
