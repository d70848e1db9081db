package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricUnits lists every metric the benchmark prints, with its unit.
// End-to-end metrics come from the untraced run (--trace 0), per-layer
// metrics from the traced run (--trace 1). BENCHMARK.json names the
// same metrics; the smoke test keeps the two in step.
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"events_per_s":        "1/s",
	"emit_latency_p50_ms": "ms",
	"max_rss_mb":          "MB",
	"rel_err.kll":         "1",
	"rel_err.req":         "1",
	"rel_err.ddsketch":    "1",
	"rel_err.uddsketch":   "1",
	"rel_err.moments":     "1",
}

func perLayerUnits() map[string]string {
	u := map[string]string{
		"datagen.next_ns":             "ns",
		"ddsketch.index_ns":           "ns",
		"ddsketch.store_add_ns":       "ns",
		"ddsketch.ladder_residual_ns": "ns",
		"uddsketch.collapses":         "count",
		"stats.exact_ns_per_value":    "ns",
		"core.evaluate_us":            "us",
		"stream.self_ns_per_event":    "ns",
		"stream.accepted":             "count",
		"stream.dropped_late":         "count",
		"stream.windows":              "count",
		"checkpoint.put_us":           "us",
		"checkpoint.bytes":            "B",
		"trace.overhead_pct":          "%",
		"trace.clock_ns":              "ns",
	}
	for _, s := range sketchNames() {
		u[s+".insert_ns"] = "ns"
		u[s+".quantiles_us"] = "us"
		u[s+".merge_us"] = "us"
		u[s+".marshal_us"] = "us"
		u[s+".unmarshal_us"] = "us"
		u[s+".scale_us"] = "us"
		u[s+".footprint_kb"] = "KiB"
	}
	return u
}

// sketchNames is the study's five sketches in the order the metrics
// list them.
func sketchNames() []string { return []string{"kll", "req", "ddsketch", "uddsketch", "moments"} }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostStamp identifies the machine a result was measured on; results
// are comparable only between equal stamps.
type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func currentHost() hostStamp {
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// summary is a metric's sample distribution: the median and the
// quartiles as Python's statistics.quantiles(n=4) computes them.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile by linear interpolation
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles follows statistics.quantiles(data, n=4) with the default
// exclusive method.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// detail is the line printed before the result: every sample the
// metrics were computed from, with the host, seed and scale.
type detail struct {
	Host      hostStamp            `json:"host"`
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Scale     float64              `json:"scale"`
	Config    map[string]any       `json:"config"`
	Trace     int                  `json:"trace"`
	Samples   map[string][]float64 `json:"samples"`
	Summary   map[string]summary   `json:"summary"`
	Tails     map[string]float64   `json:"tails,omitempty"`
	Digests   []string             `json:"digests"`
	Failures  []string             `json:"failures,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

type detailLine struct {
	Detail detail `json:"detail"`
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// compareFiles prints, metric by metric, the medians of two saved
// benchmark outputs. It refuses outputs from different hosts,
// workloads or scales, and marks a change as outside the noise only
// when the new median leaves the old run's quartile range.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	a, err := readDetail(oldPath)
	if err != nil {
		return err
	}
	b, err := readDetail(newPath)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		return fmt.Errorf("hosts differ: %+v vs %+v", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Scale != b.Scale || a.Trace != b.Trace {
		return fmt.Errorf("runs differ: %s/%g/trace=%d vs %s/%g/trace=%d",
			a.Workload, a.Scale, a.Trace, b.Workload, b.Scale, b.Trace)
	}
	names := make([]string, 0, len(a.Summary))
	for k := range a.Summary {
		if _, ok := b.Summary[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-30s %14s %14s %8s  %s\n", "metric", "old median", "new median", "new/old", "verdict")
	for _, k := range names {
		o, n := a.Summary[k], b.Summary[k]
		ratio := math.NaN()
		if o.Median != 0 {
			ratio = n.Median / o.Median
		}
		verdict := "within old quartiles"
		if n.Median < o.Q1 || n.Median > o.Q3 {
			verdict = "outside old quartiles"
		}
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %8.4f  %s\n", k, o.Median, n.Median, ratio, verdict)
	}
	return nil
}

func readDetail(path string) (detail, error) {
	f, err := os.Open(path)
	if err != nil {
		return detail{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"detail"`) {
			continue
		}
		var d detailLine
		if err := json.Unmarshal(line, &d); err != nil {
			return detail{}, fmt.Errorf("%s: %w", path, err)
		}
		return d.Detail, nil
	}
	if err := sc.Err(); err != nil {
		return detail{}, fmt.Errorf("%s: %w", path, err)
	}
	return detail{}, fmt.Errorf("%s: no detail line", path)
}
