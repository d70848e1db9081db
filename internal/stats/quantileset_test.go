package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// studyQs are the eight quantiles every accuracy experiment queries
// (core.AllQuantiles; core imports stats, so they are restated here),
// plus the ends of the range.
var studyQs = []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99}

// quantileSetShapes builds the inputs the oracle is checked on: random,
// all-equal, few-distinct (quantized), sorted, reverse, organ-pipe, and
// two with signed zeros mixed in.
func quantileSetShapes(n int, seed uint64) map[string][]float64 {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	gen := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	return map[string][]float64{
		"random":    gen(func(int) float64 { return rng.NormFloat64() * 100 }),
		"all-equal": gen(func(int) float64 { return 42.5 }),
		"few-distinct": gen(func(int) float64 {
			return math.Round(rng.Float64()*4) / 4
		}),
		"sorted":     gen(func(i int) float64 { return float64(i) }),
		"reverse":    gen(func(i int) float64 { return float64(n - i) }),
		"organ-pipe": gen(func(i int) float64 { return float64(min(i, n-1-i)) }),
		"signed-zeros": gen(func(int) float64 {
			switch rng.IntN(4) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			default:
				return rng.NormFloat64()
			}
		}),
		"negative-zeros": gen(func(int) float64 {
			if rng.IntN(2) == 0 {
				return math.Copysign(0, -1)
			}
			return rng.Float64()
		}),
	}
}

// checkQuantileSet fails t unless QuantileSet agrees bit for bit with
// ExactQuantiles on every q of qs, and leaves data untouched.
func checkQuantileSet(t *testing.T, data, qs []float64) {
	t.Helper()
	orig := append([]float64(nil), data...)
	set := NewQuantileSet(data, qs)
	exact := NewExactQuantiles(data)
	for i := range data {
		if math.Float64bits(data[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("NewQuantileSet modified its input at %d", i)
		}
	}
	for _, q := range qs {
		got, want := set.Quantile(q), exact.Quantile(q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d q=%v: QuantileSet %v (bits %#x), ExactQuantiles %v (bits %#x)",
				len(data), q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestQuantileSetMatchesExact: the selection oracle returns the sort
// oracle's exact bits on every study q, across sizes from one element
// to 70k and every input shape.
func TestQuantileSetMatchesExact(t *testing.T) {
	qs := append([]float64{0, 1e-9, 1}, studyQs...)
	for _, n := range []int{1, 2, 3, 7, 15, 16, 17, 31, 64, 100, 257, 1000, 4099, 20000, 70000} {
		for name, data := range quantileSetShapes(n, 7) {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				checkQuantileSet(t, data, qs)
			})
		}
	}
}

// TestQuantileSetDuplicateQs: repeated qs and qs mapping to one rank
// share a selected element.
func TestQuantileSetDuplicateQs(t *testing.T) {
	data := quantileSetShapes(10, 3)["random"]
	checkQuantileSet(t, data, []float64{0.5, 0.5, 0.45, 0.41, 0.99, 1})
}

// TestQuantileSetUnknownQPanics: a q outside the set has no answer.
func TestQuantileSetUnknownQPanics(t *testing.T) {
	set := NewQuantileSet([]float64{1, 2, 3}, []float64{0.5})
	defer func() {
		if recover() == nil {
			t.Error("Quantile of a q outside the set should panic")
		}
	}()
	set.Quantile(0.9)
}

// TestExactQuantilesRankExtremes pins Rank(x) = #{elements ≤ x} at the
// ends of the float64 line, where a search for the successor of x
// cannot work: +Inf has no successor.
func TestExactQuantilesRankExtremes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	e := NewExactQuantiles([]float64{math.Inf(-1), -1, negZero, 0, 1, math.MaxFloat64, math.Inf(1)})
	cases := []struct {
		x    float64
		want int
	}{
		{math.Inf(-1), 1},
		{-math.MaxFloat64, 1},
		{-1, 2},
		{negZero, 4},
		{0, 4},
		{1, 5},
		{math.MaxFloat64, 6},
		{math.Inf(1), 7},
	}
	for _, c := range cases {
		if got := e.Rank(c.x); got != c.want {
			t.Errorf("Rank(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := NewExactQuantiles([]float64{1, 2, math.Inf(1)}).Rank(math.Inf(1)); got != 3 {
		t.Errorf("Rank(+Inf) over {1, 2, +Inf} = %d, want 3", got)
	}
	if got := RankError(e, 1, math.Inf(1)); got != 0 {
		t.Errorf("RankError(q=1, estimate +Inf) = %v, want 0", got)
	}
}

// encodeFloats packs xs little-endian, the fuzz target's input format.
func encodeFloats(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzQuantileSet: on any input — NaNs, infinities, signed zeros and
// duplicates included — the selection oracle agrees bit for bit with
// the sort oracle on the study qs and one fuzzed q.
func FuzzQuantileSet(f *testing.F) {
	for _, n := range []int{1, 2, 17, 100} {
		for _, data := range quantileSetShapes(n, 11) {
			f.Add(encodeFloats(data), uint16(32768))
		}
	}
	f.Add(encodeFloats([]float64{math.NaN(), 1, math.Inf(1), math.Copysign(0, -1), 0}), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, qBits uint16) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		qs := append([]float64{float64(qBits) / 65535}, studyQs...)
		checkQuantileSet(t, data, qs)
	})
}
