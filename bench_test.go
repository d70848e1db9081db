// Benchmarks regenerating each table and figure of the study (run with
// `go test -bench=. -benchmem`). Micro-benchmarks (Insert/Query/Merge)
// feed Table 3 and Fig 5; experiment benchmarks run the corresponding
// harness experiment at a small scale and report its headline number as
// a custom metric. cmd/quantbench runs the same experiments at full,
// paper-sized scale.
package quantiles_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gk"
	"repro/internal/harness"
	"repro/internal/hdr"
	"repro/internal/mrl"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/tdigest"
)

// benchBuilders returns the five study-configured builders (Pareto
// setting: Moments log-transformed).
func benchBuilders(b *testing.B) map[string]sketch.Builder {
	b.Helper()
	builders, err := core.BuildersForDataset(datagen.DatasetPareto, 7)
	if err != nil {
		b.Fatal(err)
	}
	return builders
}

func paretoValues(n int, seed uint64) []float64 {
	return datagen.Take(datagen.NewPareto(1, 1, seed), n)
}

// BenchmarkInsert is Fig 5a: per-element insertion cost on Pareto data.
func BenchmarkInsert(b *testing.B) {
	vals := paretoValues(1<<20, 11)
	builders := benchBuilders(b)
	for _, alg := range core.AlgorithmNames() {
		builder := builders[alg]
		b.Run(alg, func(b *testing.B) {
			sk := builder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Insert(vals[i&(1<<20-1)])
			}
		})
	}
}

// BenchmarkQuery is Fig 5b: answering the study's 8-quantile set at
// different consumed data sizes.
func BenchmarkQuery(b *testing.B) {
	qs := core.AllQuantiles()
	builders := benchBuilders(b)
	for _, n := range []int{100_000, 1_000_000} {
		vals := paretoValues(n, 13)
		for _, alg := range core.AlgorithmNames() {
			builder := builders[alg]
			b.Run(fmt.Sprintf("%s/n=%d", alg, n), func(b *testing.B) {
				sk := builder()
				sketch.InsertAll(sk, vals)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 {
						sk.Insert(vals[i%n]) // invalidate solver/view caches
					}
					for _, q := range qs {
						if _, err := sk.Quantile(q); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// BenchmarkMerge is Fig 5c: merging two sketches, each filled with the
// merge workload distributions.
func BenchmarkMerge(b *testing.B) {
	const fill = 100_000
	builders, err := core.BuildersForDataset(datagen.DatasetUniform, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, workload := range datagen.MergeWorkloadNames() {
		for _, alg := range core.AlgorithmNames() {
			builder := builders[alg]
			b.Run(fmt.Sprintf("%s/%s", alg, workload), func(b *testing.B) {
				pool := make([]sketch.Sketch, 8)
				for i := range pool {
					src, err := datagen.NewMergeWorkload(workload, uint64(100+i))
					if err != nil {
						b.Fatal(err)
					}
					sk := builder()
					for j := 0; j < fill; j++ {
						sk.Insert(src.Next())
					}
					pool[i] = sk
				}
				acc := builder()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Reset once per pool cycle: an accumulator that grows
					// with b.N makes later merge iterations measure an
					// ever-larger sketch instead of a steady-state merge.
					if i%len(pool) == 0 {
						acc.Reset()
					}
					if err := acc.Merge(pool[i%len(pool)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSerde measures serialization round-trips (the shipped-bytes
// cost of distributed merging).
func BenchmarkSerde(b *testing.B) {
	vals := paretoValues(200_000, 17)
	builders := benchBuilders(b)
	for _, alg := range core.AlgorithmNames() {
		builder := builders[alg]
		b.Run(alg, func(b *testing.B) {
			sk := builder()
			sketch.InsertAll(sk, vals)
			blob, err := sk.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(blob)))
			dst := builder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err = sk.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				if err := dst.UnmarshalBinary(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchOpts is a tiny-scale harness configuration for experiment
// benchmarks: one data pass, minimal repetitions.
func benchOpts() harness.Options {
	o := harness.DefaultOptions(0.02)
	o.Runs = 2
	return o
}

// runExperiment runs a harness experiment b.N times, reporting the given
// cell of the first table as a custom metric.
func runExperiment(b *testing.B, id string, metricRow, metricCol int, metricName string) {
	e, ok := harness.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && metricName != "" {
			var v float64
			fmt.Sscanf(tables[0].Rows[metricRow][metricCol], "%f", &v)
			b.ReportMetric(v, metricName)
		}
	}
}

// BenchmarkTable3Memory regenerates Table 3 (memory usage per sketch).
func BenchmarkTable3Memory(b *testing.B) { runExperiment(b, "table3", 0, 1, "req-KB") }

// BenchmarkFig6Accuracy regenerates Fig 6 (streaming accuracy on the
// four data sets); the reported metric is the first algorithm's mid
// error on Pareto.
func BenchmarkFig6Accuracy(b *testing.B) { runExperiment(b, "fig6", 0, 1, "") }

// BenchmarkFig7Kurtosis regenerates Fig 7 (0.98-quantile error vs
// kurtosis).
func BenchmarkFig7Kurtosis(b *testing.B) { runExperiment(b, "fig7", 0, 2, "") }

// BenchmarkFig8Adaptability regenerates Fig 8 (distribution-switch
// accuracy).
func BenchmarkFig8Adaptability(b *testing.B) { runExperiment(b, "fig8", 0, 1, "") }

// BenchmarkLateData regenerates the Sec 4.6 late-arriving-data variant.
func BenchmarkLateData(b *testing.B) { runExperiment(b, "late", 0, 1, "") }

// BenchmarkStoreAblation regenerates the DDSketch store ablation.
func BenchmarkStoreAblation(b *testing.B) { runExperiment(b, "ablation-store", 0, 2, "") }

// BenchmarkHRAAblation regenerates the ReqSketch HRA/LRA ablation.
func BenchmarkHRAAblation(b *testing.B) { runExperiment(b, "ablation-hra", 0, 4, "") }

// BenchmarkBulkInsert measures the O(1) weighted-insert path against the
// loop fallback for a heavy point mass.
func BenchmarkBulkInsert(b *testing.B) {
	builders := benchBuilders(b)
	for _, alg := range []string{"ddsketch", "uddsketch", "moments"} {
		builder := builders[alg]
		b.Run(alg, func(b *testing.B) {
			sk := builder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sketch.InsertRepeated(sk, 42.5, 1000)
			}
		})
	}
}

// BenchmarkInsertBatch compares per-element Insert against the native
// batch kernels (sketch.BatchInserter) on the same Pareto stream, in
// ns/event. The batch path feeds 256-value chunks, the granularity the
// stream engine's worker pool ships.
func BenchmarkInsertBatch(b *testing.B) {
	const chunk = 256
	vals := paretoValues(1<<20, 11)
	builders := benchBuilders(b)
	for _, alg := range core.AlgorithmNames() {
		builder := builders[alg]
		b.Run(alg+"/scalar", func(b *testing.B) {
			sk := builder()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Insert(vals[i&(1<<20-1)])
			}
		})
		b.Run(alg+"/batch", func(b *testing.B) {
			sk := builder()
			b.ResetTimer()
			for n := 0; n < b.N; n += chunk {
				start := n & (1<<20 - 1)
				m := chunk
				if n+m > b.N {
					m = b.N - n
				}
				if start+m > 1<<20 {
					m = 1<<20 - start
				}
				sketch.InsertAll(sk, vals[start:start+m])
			}
		})
	}
}

// BenchmarkQuantileAll compares answering the study's 8-quantile set
// with one Quantile call per q (scalar) against the native batched
// kernels (sketch.MultiQuantiler). Each iteration inserts one value
// first so cached CDF snapshots and maxent solutions are invalidated,
// as they are between stream windows. Each sub-benchmark works on its
// own serde clone of one filled sketch, so neither inherits the other's
// inserts.
func BenchmarkQuantileAll(b *testing.B) {
	qs := core.AllQuantiles()
	vals := paretoValues(1<<20, 13)
	builders := benchBuilders(b)
	for _, alg := range core.AlgorithmNames() {
		builder := builders[alg]
		filled := builder()
		sketch.InsertAll(filled, vals)
		blob, err := filled.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		clone := func(b *testing.B) sketch.Sketch {
			sk := builder()
			if err := sk.UnmarshalBinary(blob); err != nil {
				b.Fatal(err)
			}
			return sk
		}
		b.Run(alg+"/scalar", func(b *testing.B) {
			sk := clone(b)
			for i := 0; i < b.N; i++ {
				sk.Insert(vals[i&(1<<20-1)]) // invalidate solver/view caches
				for _, q := range qs {
					if _, err := sk.Quantile(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(alg+"/batch", func(b *testing.B) {
			sk := clone(b)
			for i := 0; i < b.N; i++ {
				sk.Insert(vals[i&(1<<20-1)])
				if _, err := sketch.Quantiles(sk, qs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccuracyEval runs one single-dataset accuracy pass (the unit
// every accuracy experiment repeats) with sequential and parallel
// window evaluation; accuracy output is bit-identical at any worker
// count.
func BenchmarkAccuracyEval(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			o := benchOpts()
			o.EvalWorkers = workers
			for i := 0; i < b.N; i++ {
				if _, err := harness.RunAccuracy(o, datagen.DatasetPareto); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSlidingThroughput compares the two ways to answer
// overlapping sliding windows at slide = window/16: recomputing every
// window from scratch (generic engine — each event is inserted into
// all ~16 open window sketches that contain it) against the
// pane-sharing engine (each event is inserted once into its pane, and
// each window is assembled by merging its 16 pane sketches). Both
// variants process ~b.N events end to end.
//
// The decay rows run the pane engine with exponential decay at
// λ = 1/s on the paper's UDDSketch, so 15 of each window's 16 panes
// enter down-weighted: decay folds each one in through its
// sketch.ScaledMerger kernel, and decay-serde hides that kernel so the
// same run takes sketch.MergeScaled's reference path (serde clone,
// ScaleCount, Merge) — the within-run measure of the kernel's gain.
func BenchmarkSlidingThroughput(b *testing.B) {
	const (
		window = time.Second
		slide  = window / 16
		rate   = 100_000
	)
	vals := paretoValues(1<<18, 37)
	newSrc := func() datagen.Source {
		i := 0
		return datagen.SourceFunc(func() float64 {
			v := vals[i&(1<<18-1)]
			i++
			return v
		})
	}
	builders, err := core.BuildersForDataset(datagen.DatasetPareto, 7)
	if err != nil {
		b.Fatal(err)
	}
	// rate·slide events arrive per slide interval, and both engines run
	// for one slide interval per produced window.
	perSlide := int(float64(rate) * slide.Seconds())
	b.Run("recompute", func(b *testing.B) {
		eng, err := stream.NewGenericEngine(stream.GenericConfig{
			Assigner:  stream.SlidingAssigner{Size: window, Slide: slide},
			Rate:      rate,
			RunLength: time.Duration(b.N/perSlide+1) * slide,
			Values:    newSrc(),
			Builder:   builders["ddsketch"],
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if _, err := eng.Run(func(stream.GenericResult) {}); err != nil {
			b.Fatal(err)
		}
	})
	pane := func(builder sketch.Builder, lambda float64) func(*testing.B) {
		return func(b *testing.B) {
			eng, err := stream.NewEngine(stream.Config{
				WindowSize:  window,
				Slide:       slide,
				DecayLambda: lambda,
				Rate:        rate,
				NumWindows:  b.N/perSlide + 1,
				Partitions:  4,
				Workers:     1,
				Values:      newSrc(),
				Builder:     builder,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := eng.Run(func(stream.WindowResult) {}); err != nil {
				b.Fatal(err)
			}
		}
	}
	udd := builders["uddsketch"]
	b.Run("pane", pane(builders["ddsketch"], 0))
	b.Run("decay", pane(udd, 1))
	b.Run("decay-serde", pane(func() sketch.Sketch { return serdeScaled{udd()} }, 1))
}

// serdeScaled hides a sketch's ScaledMerger kernel behind the plain
// Sketch method set (forwarding the batch insert and count scaling the
// decayed pane engine also uses), so sketch.MergeScaled takes its serde
// reference path.
type serdeScaled struct{ sketch.Sketch }

func (s serdeScaled) InsertBatch(xs []float64) { sketch.InsertAll(s.Sketch, xs) }
func (s serdeScaled) ScaleCount(g float64)     { s.Sketch.(sketch.CountScaler).ScaleCount(g) }

func (s serdeScaled) Merge(other sketch.Sketch) error {
	if o, ok := other.(serdeScaled); ok {
		other = o.Sketch
	}
	return s.Sketch.Merge(other)
}

// BenchmarkRelatedInsert covers the Sec 5 related sketches under the
// same Fig 5a-style insertion workload.
func BenchmarkRelatedInsert(b *testing.B) {
	vals := paretoValues(1<<20, 23)
	related := map[string]func() sketch.Sketch{
		"tdigest": func() sketch.Sketch { return tdigest.New(tdigest.DefaultCompression) },
		"gk":      func() sketch.Sketch { return gk.New(gk.DefaultEpsilon) },
		"mrl":     func() sketch.Sketch { return mrl.NewWithSeed(mrl.DefaultBuffers, mrl.DefaultK, 7) },
		"hdr": func() sketch.Sketch {
			h, err := hdr.New(1, 100_000_000, 3)
			if err != nil {
				b.Fatal(err)
			}
			return h
		},
	}
	for name, mk := range related {
		b.Run(name, func(b *testing.B) {
			sk := mk()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Insert(vals[i&(1<<20-1)])
			}
		})
	}
}

// BenchmarkStreamThroughput measures the full engine pipeline (event
// generation, delay heap, windowing, sketch insert) in events/op.
func BenchmarkStreamThroughput(b *testing.B) {
	vals := paretoValues(1<<18, 29)
	i := 0
	src := datagen.SourceFunc(func() float64 {
		v := vals[i&(1<<18-1)]
		i++
		return v
	})
	builders, err := core.BuildersForDataset(datagen.DatasetPareto, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, delayed := range []bool{false, true} {
		name := "no-delay"
		var delay stream.DelayModel = stream.ZeroDelay{}
		if delayed {
			name = "exp-delay"
			delay = stream.NewExponentialDelay(20*time.Millisecond, 31)
		}
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/w=%d", name, workers), func(b *testing.B) {
				// One window per 100k events; b.N events total.
				windows := b.N/100_000 + 1
				eng, err := stream.NewEngine(stream.Config{
					WindowSize: time.Second,
					Rate:       100_000,
					NumWindows: windows,
					Partitions: 4,
					Workers:    workers,
					Values:     src,
					Delay:      delay,
					Builder:    builders["ddsketch"],
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				if _, err := eng.Run(func(stream.WindowResult) {}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkBudgetOverhead measures what the memory-budget governor
// costs the serial hot path. "off" is MemoryBudget 0 (nil governor:
// one predictable branch per cadence check); "slack" is a budget so
// far above the workload's footprint that the governor tracks and
// enforces on cadence but never degrades, evicts or sheds. bench.sh
// gates off=slack at >= 0.98x: a non-binding budget may cost at most
// 2% throughput, and a disabled one nothing measurable.
func BenchmarkBudgetOverhead(b *testing.B) {
	vals := paretoValues(1<<18, 29)
	builders, err := core.BuildersForDataset(datagen.DatasetPareto, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name   string
		budget int
	}{
		{"off", 0},
		{"slack", 1 << 30},
	} {
		b.Run(bc.name, func(b *testing.B) {
			i := 0
			src := datagen.SourceFunc(func() float64 {
				v := vals[i&(1<<18-1)]
				i++
				return v
			})
			eng, err := stream.NewEngine(stream.Config{
				WindowSize:   time.Second,
				Rate:         100_000,
				NumWindows:   b.N/100_000 + 1,
				Partitions:   4,
				Workers:      1,
				Values:       src,
				Builder:      builders["ddsketch"],
				MemoryBudget: bc.budget,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := eng.Run(func(stream.WindowResult) {}); err != nil {
				b.Fatal(err)
			}
		})
	}
}
