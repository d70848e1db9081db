package ddsketch

import (
	"fmt"
	"math"

	"repro/internal/fastlog"
)

// IndexMapping generalizes the value→bucket mapping so the sketch can
// trade a slightly larger bucket count for much cheaper indexing, as the
// reference DDSketch implementation's mapping family does: the exact
// logarithmic mapping calls log() per insert, while interpolated mappings
// extract the binary exponent from the float representation and
// approximate log2 on the mantissa with a polynomial (internal/fastlog).
//
// Every mapping here preserves the α guarantee *by construction*: the
// polynomial's worst-case slope distortion relative to the true log2 is
// computed numerically at init and folded into the index multiplier, so
// buckets are (at most slightly) narrower than the exact mapping's —
// more buckets, same guarantee, faster Index.
type IndexMapping interface {
	// Index returns the bucket for a positive value.
	Index(x float64) int
	// Value returns a representative value of bucket i within relative
	// distance α of every value in the bucket.
	Value(i int) float64
	// Alpha returns the guaranteed relative accuracy.
	Alpha() float64
	// Gamma returns the worst-case bucket ratio (1+α)/(1−α).
	Gamma() float64
	// MinIndexable returns the smallest indexable positive value.
	MinIndexable() float64
	// Name identifies the mapping kind for serde compatibility checks.
	Name() string
}

// Logarithmic adapts the exact Mapping to the IndexMapping interface.
type Logarithmic struct{ Mapping }

// NewLogarithmic returns the exact log_γ mapping.
func NewLogarithmic(alpha float64) (Logarithmic, error) {
	m, err := NewMapping(alpha)
	return Logarithmic{m}, err
}

// MinIndexable implements IndexMapping.
func (l Logarithmic) MinIndexable() float64 { return l.MinIndexableValue() }

// Name implements IndexMapping.
func (Logarithmic) Name() string { return "logarithmic" }

// checkMappingAlpha validates the accuracy parameter shared by all
// mapping constructors.
func checkMappingAlpha(alpha float64) error {
	if !(alpha > 0 && alpha < 1) {
		return fmt.Errorf("ddsketch: alpha must be in (0,1), got %v", alpha)
	}
	return nil
}

// Cubic is the cubically-interpolated mapping (the reference
// implementation's CubicallyInterpolatedMapping polynomial A=6/35,
// B=−3/5, C=10/7): ~1% more buckets than exact, no log() call per
// insert. It is a small value type so the batch kernels can hold it
// concretely and devirtualize Index into straight-line float code.
type Cubic struct {
	alpha      float64
	gamma      float64
	multiplier float64 // buckets per unit of ℓ = 1/(minSlope·log2 γ)
}

// NewCubicMapping returns the cubically-interpolated mapping — the
// default mapping of New/NewCollapsing.
func NewCubicMapping(alpha float64) (IndexMapping, error) {
	m, err := NewCubic(alpha)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewCubic is NewCubicMapping returning the concrete type.
func NewCubic(alpha float64) (Cubic, error) {
	if err := checkMappingAlpha(alpha); err != nil {
		return Cubic{}, err
	}
	gamma := (1 + alpha) / (1 - alpha)
	return Cubic{
		alpha:      alpha,
		gamma:      gamma,
		multiplier: 1 / (fastlog.CubicMinSlope * math.Log2(gamma)),
	}, nil
}

// Index implements IndexMapping.
//
//sketch:hotpath
func (m Cubic) Index(x float64) int {
	return int(math.Ceil(fastlog.Log2Cubic(x) * m.multiplier))
}

// Value implements IndexMapping: the harmonic midpoint of the bucket's
// value bounds (see harmonicMid), within α of both ends whenever
// hi/lo ≤ γ.
func (m Cubic) Value(i int) float64 {
	lo := fastlog.Log2CubicInverse((float64(i) - 1) / m.multiplier)
	hi := fastlog.Log2CubicInverse(float64(i) / m.multiplier)
	return harmonicMid(lo, hi)
}

// harmonicMid returns 2·lo·hi/(lo+hi) in the form 2·hi/(1+hi/lo), since
// the product overflows past ~1e154. A bucket whose upper bound
// overflows (values near ±MaxFloat64) yields +Inf rather than the
// Inf/Inf NaN, so the sketches' clamp lands on the observed max or min.
func harmonicMid(lo, hi float64) float64 {
	if math.IsInf(hi, 1) {
		return hi
	}
	return 2 * (hi / (1 + hi/lo))
}

// Alpha implements IndexMapping.
func (m Cubic) Alpha() float64 { return m.alpha }

// Gamma implements IndexMapping.
func (m Cubic) Gamma() float64 { return m.gamma }

// MinIndexable implements IndexMapping: below fastlog.MinIndexable the
// exponent extraction is no longer exact, so smaller magnitudes go to
// the exact-zero counter.
func (Cubic) MinIndexable() float64 { return fastlog.MinIndexable }

// Name implements IndexMapping.
func (Cubic) Name() string { return "cubic" }

// Linear is the linearly-interpolated mapping (P(s) = s): the cheapest
// Index at the cost of ~44% more buckets (minSlope = ln2).
type Linear struct {
	alpha      float64
	gamma      float64
	multiplier float64
}

// NewLinearMapping returns the linearly-interpolated mapping.
func NewLinearMapping(alpha float64) (IndexMapping, error) {
	m, err := NewLinear(alpha)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewLinear is NewLinearMapping returning the concrete type.
func NewLinear(alpha float64) (Linear, error) {
	if err := checkMappingAlpha(alpha); err != nil {
		return Linear{}, err
	}
	gamma := (1 + alpha) / (1 - alpha)
	return Linear{
		alpha:      alpha,
		gamma:      gamma,
		multiplier: 1 / (fastlog.LinearMinSlope * math.Log2(gamma)),
	}, nil
}

// Index implements IndexMapping.
//
//sketch:hotpath
func (m Linear) Index(x float64) int {
	return int(math.Ceil(fastlog.Log2Linear(x) * m.multiplier))
}

// Value implements IndexMapping (the harmonic midpoint, as in Cubic.Value).
func (m Linear) Value(i int) float64 {
	lo := fastlog.Log2LinearInverse((float64(i) - 1) / m.multiplier)
	hi := fastlog.Log2LinearInverse(float64(i) / m.multiplier)
	return harmonicMid(lo, hi)
}

// Alpha implements IndexMapping.
func (m Linear) Alpha() float64 { return m.alpha }

// Gamma implements IndexMapping.
func (m Linear) Gamma() float64 { return m.gamma }

// MinIndexable implements IndexMapping.
func (Linear) MinIndexable() float64 { return fastlog.MinIndexable }

// Name implements IndexMapping.
func (Linear) Name() string { return "linear" }
