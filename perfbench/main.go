// Command perfbench is the repository's benchmark. One invocation runs
// one named workload (fig6, stream-late or sliding-decay) for a given
// time at a given seed, checks every fired window's outputs, and prints
// its metrics. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it makes a separate traced run and prints the per-layer
// metrics. The last line of output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it holds every sample, with the host, seed and scale.
// "perfbench compare OLD NEW" compares two saved outputs from the same
// host. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// childEnv makes a process a child of a benchmark run: "probe" only
// measures set-up (it builds the workload's first engine run and exits
// as the first event is requested); "reference" runs the workload's
// accuracy pass at the reference seed and prints its outcome.
const childEnv = "PERFBENCH_CHILD"

func main() {
	if code, ok := childMain(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs the child role childEnv names, if any.
func childMain(args []string) (code int, ok bool) {
	switch os.Getenv(childEnv) {
	case "probe":
		return probeMain(args), true
	case "reference":
		return referenceMain(args, os.Stdout), true
	}
	return 0, false
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	scale    float64
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: fig6, stream-late or sliding-decay")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "how long the timed part of the run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies the workload's size (the smoke test uses a small scale)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads()[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || !(o.scale > 0) {
		return o, errors.New("need --seconds >= 1, --trace 0 or 1, --scale > 0")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 3 && args[0] == "compare" {
		if err := compareFiles(args[1], args[2], stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w := workloads()[o.workload]
	var b *bench
	if o.trace == 0 {
		b, err = runUntraced(o, w, args)
	} else {
		b, err = runTraced(o, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	d := detail{
		Host:      currentHost(),
		Workload:  o.workload,
		Seed:      o.seed,
		Scale:     o.scale,
		Config:    w.config,
		Trace:     o.trace,
		Samples:   b.samples,
		Summary:   make(map[string]summary, len(b.samples)),
		Tails:     b.tails,
		Digests:   hexDigests(b.digests),
		Failures:  b.obs.failures,
		Attempted: b.obs.attempted,
		Failed:    b.obs.failed,
	}
	for k, xs := range b.samples {
		d.Summary[k] = summarize(xs)
	}
	res := result{
		Correct:   b.obs.failed == 0,
		Attempted: b.obs.attempted,
		Failed:    b.obs.failed,
		Metrics:   b.metrics,
	}
	if err := writeJSONLine(stdout, detailLine{d}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is what one invocation measured.
type bench struct {
	metrics map[string]metric
	samples map[string][]float64
	obs     *observer // checks over every pass of the invocation
	digests []uint64  // outputs of each pass of the workload's timed part
	tails   map[string]float64
}

func newBench() *bench {
	return &bench{metrics: make(map[string]metric), samples: make(map[string][]float64), obs: newObserver()}
}

func (b *bench) set(name string, v float64, units map[string]string) {
	b.metrics[name] = metric{Value: v, Unit: units[name]}
}

func hexDigests(ds []uint64) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = strconv.FormatUint(d, 16)
	}
	return out
}

func monotonic() func() int64 {
	base := time.Now()
	return func() int64 { return int64(time.Since(base)) }
}

// probeSetup measures set-up time: it starts this program n times as a
// probe child and times each from process start until the first event
// is requested (the child exits there). It returns the durations in
// seconds.
func probeSetup(args []string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Env = append(os.Environ(), childEnv+"=probe")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// probeMain is the probe child: it sets up the workload's first engine
// run exactly as a measured run does and exits with status 0 when the
// engine requests the first event.
func probeMain(args []string) int {
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		return 2
	}
	w := workloads()[o.workload]
	exit := func() { os.Exit(0) }
	obs := newObserver()
	if w.rep == nil {
		_, err = accuracyPass(w.scaledAccuracy(o.scale), o.seed, nil, obs, monotonic(), exit)
	} else {
		_, err = w.rep(repParams{seed: o.seed, scale: o.scale, obs: obs, clock: monotonic(), probe: exit})
	}
	fmt.Fprintln(os.Stderr, "perfbench probe: no event was requested:", err)
	return 1
}

// reference is the outcome of the reference accuracy pass, as the
// reference child prints it.
type reference struct {
	RelErr    map[string]float64 `json:"rel_err"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures"`
}

// referenceMain is the reference child.
func referenceMain(args []string, stdout io.Writer) int {
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		return 2
	}
	obs := newObserver()
	acc, err := accuracyPass(workloads()[o.workload].scaledAccuracy(o.scale), referenceSeed, nil, obs, monotonic(), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench reference:", err)
		return 1
	}
	if err := writeJSONLine(stdout, reference{acc.relErr, obs.attempted, obs.failed, obs.failures}); err != nil {
		return 1
	}
	return 0
}

// runReference runs the reference child and returns its outcome and
// its peak resident set. The pass is the same on every run, so its
// peak memory is steady where the timed passes' peak, set by how far
// the collector falls behind a high allocation rate, is not.
func runReference(args []string) (reference, float64, error) {
	var ref reference
	exe, err := os.Executable()
	if err != nil {
		return ref, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=reference")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return ref, 0, fmt.Errorf("reference pass: %w", err)
	}
	if err := json.Unmarshal(out.Bytes(), &ref); err != nil {
		return ref, 0, fmt.Errorf("reference pass: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return ref, 0, errors.New("reference pass: no resource usage")
	}
	return ref, float64(ru.Maxrss) / 1024, nil
}
