// Package core encodes the study's experimental setup (paper Sec 4.2):
// the five sketches under their paper-specified configurations, the
// quantile set queried in every experiment with its mid/upper/p99
// grouping, and the per-window accuracy evaluation that all accuracy
// figures (Fig 6–8, Sec 4.6–4.7) are built from.
package core

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/ddsketch"
	"repro/internal/kll"
	"repro/internal/moments"
	"repro/internal/req"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/uddsketch"
)

// Study parameters (Sec 4.2). Each was chosen by the authors so the
// sketches have a similar memory footprint and ≈1% rank or relative
// accuracy.
const (
	// KLLMaxCompactorSize is KLL's k: expected rank error ≈ 0.97%.
	KLLMaxCompactorSize = 350
	// ReqNumSections is ReqSketch's section-size parameter (the paper
	// calls it num_sections).
	ReqNumSections = 30
	// ReqHighRankAccuracy: the study enables HRA to sharpen upper
	// quantiles.
	ReqHighRankAccuracy = true
	// DDSketchAlpha is DDSketch's relative accuracy (γ = 1.0202).
	DDSketchAlpha = 0.01
	// UDDSketchAlpha is UDDSketch's target final relative accuracy.
	UDDSketchAlpha = 0.01
	// UDDSketchMaxBuckets is UDDSketch's bucket budget.
	UDDSketchMaxBuckets = 1024
	// UDDSketchNumCollapses is the collapse budget the initial α₀ is
	// derived from.
	UDDSketchNumCollapses = 12
	// MomentsNumMoments is Moments Sketch's k (≥15 is numerically
	// unstable).
	MomentsNumMoments = 12
)

// Algorithm names in the paper's reporting order (Table 3).
const (
	AlgReq     = "req"
	AlgKLL     = "kll"
	AlgUDD     = "uddsketch"
	AlgDD      = "ddsketch"
	AlgMoments = "moments"
)

// AlgorithmNames returns the five algorithm identifiers in reporting
// order.
func AlgorithmNames() []string {
	return []string{AlgReq, AlgKLL, AlgUDD, AlgDD, AlgMoments}
}

// Quantiles queried in every accuracy experiment (Sec 4.2), grouped the
// way the paper reports them.
var (
	// MidQuantiles are reported as the "mid" group.
	MidQuantiles = []float64{0.05, 0.25, 0.5, 0.75, 0.9}
	// UpperQuantiles are reported as the "upper" group.
	UpperQuantiles = []float64{0.95, 0.98}
	// P99 is reported separately.
	P99 = 0.99
)

// AllQuantiles returns every queried quantile in ascending order.
func AllQuantiles() []float64 {
	out := append([]float64{}, MidQuantiles...)
	out = append(out, UpperQuantiles...)
	return append(out, P99)
}

// BuilderOptions tune the per-algorithm construction.
type BuilderOptions struct {
	// LogTransformMoments applies the ln transform to Moments Sketch
	// inserts — the study's setting for the Pareto and Power data sets.
	LogTransformMoments bool
	// Seed randomizes KLL/REQ compaction coin flips per run.
	Seed uint64
}

// NewBuilder returns a sketch.Builder for the named algorithm configured
// exactly as in the study.
func NewBuilder(name string, opts BuilderOptions) (sketch.Builder, error) {
	switch name {
	case AlgKLL:
		return func() sketch.Sketch {
			return kll.NewWithSeed(KLLMaxCompactorSize, opts.Seed)
		}, nil
	case AlgReq:
		return func() sketch.Sketch {
			return req.NewWithSeed(ReqNumSections, ReqHighRankAccuracy, opts.Seed)
		}, nil
	case AlgDD:
		return func() sketch.Sketch { return ddsketch.New(DDSketchAlpha) }, nil
	case AlgUDD:
		return func() sketch.Sketch {
			s, err := uddsketch.NewWithBudget(UDDSketchAlpha, UDDSketchMaxBuckets, UDDSketchNumCollapses)
			if err != nil {
				panic(err) // constants are valid by construction
			}
			return s
		}, nil
	case AlgMoments:
		tr := moments.TransformNone
		if opts.LogTransformMoments {
			tr = moments.TransformLog
		}
		return func() sketch.Sketch { return moments.NewWithTransform(MomentsNumMoments, tr) }, nil
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q (want one of %v)", name, AlgorithmNames())
	}
}

// BuildersForDataset returns the five study builders with the Moments
// transform chosen per data set, as the study does (Sec 4.2).
func BuildersForDataset(dataset string, seed uint64) (map[string]sketch.Builder, error) {
	out := make(map[string]sketch.Builder, 5)
	for _, name := range AlgorithmNames() {
		b, err := NewBuilder(name, BuilderOptions{
			LogTransformMoments: datagen.NeedsLogTransform(dataset),
			Seed:                seed,
		})
		if err != nil {
			return nil, err
		}
		out[name] = b
	}
	return out, nil
}

// WindowAccuracy is one window's per-group mean relative error.
type WindowAccuracy struct {
	// PerQuantile maps each queried q to its relative error.
	PerQuantile map[float64]float64
	// Mid, Upper and P99 are the group means the paper reports.
	Mid, Upper, P99 float64
}

// EvaluateWindow computes relative errors of sk against the exact
// quantiles of values (the window's accepted events), grouped per the
// study's reporting.
func EvaluateWindow(sk sketch.Sketch, values []float64) (WindowAccuracy, error) {
	if len(values) == 0 {
		return WindowAccuracy{}, stats.ErrEmpty
	}
	return EvaluateAgainst(sk, stats.NewQuantileSet(values, AllQuantiles()))
}

// QuantileOracle is the ground-truth surface EvaluateAgainst queries:
// *stats.QuantileSet (or *stats.ExactQuantiles) for plain windows,
// *stats.WeightedQuantiles for exponentially decayed sliding windows.
type QuantileOracle interface {
	Quantile(q float64) float64
}

// EvaluateAgainst is EvaluateWindow with a pre-built oracle (lets callers
// share one sort across sketches).
func EvaluateAgainst(sk sketch.Sketch, exact QuantileOracle) (WindowAccuracy, error) {
	qs := AllQuantiles()
	ests, err := sketch.Quantiles(sk, qs)
	if err != nil {
		return WindowAccuracy{}, fmt.Errorf("core: %s: %w", sk.Name(), err)
	}
	acc := WindowAccuracy{PerQuantile: make(map[float64]float64, len(qs))}
	var midSum, upSum float64
	for i, q := range qs {
		re := stats.RelativeError(exact.Quantile(q), ests[i])
		acc.PerQuantile[q] = re
		switch {
		case i < len(MidQuantiles):
			midSum += re
		case i < len(MidQuantiles)+len(UpperQuantiles):
			upSum += re
		default:
			acc.P99 = re
		}
	}
	acc.Mid = midSum / float64(len(MidQuantiles))
	acc.Upper = upSum / float64(len(UpperQuantiles))
	return acc, nil
}
