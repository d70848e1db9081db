package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the child processes the benchmark starts run from the
// test binary.
func TestMain(m *testing.M) {
	if code, ok := childMain(os.Args[1:]); ok {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

const smokeScale = "0.05"

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// invoke runs the benchmark in-process and returns its detail and
// result lines.
func invoke(t *testing.T, args ...string) (detail, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%v: want a detail and a result line, got %q", args, out.String())
	}
	var d detailLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return d.Detail, r
}

// TestSmoke runs every workload at a tiny scale, untraced and traced:
// each must print every metric BENCHMARK.json declares, with its unit,
// and fail no operation. Two untraced runs with one seed must produce
// identical outputs.
func TestSmoke(t *testing.T) {
	decl := readDeclared(t)
	for _, w := range decl.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			base := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--scale", smokeScale}
			d1, r1 := invoke(t, append(base, "--trace", "0")...)
			d2, r2 := invoke(t, append(base, "--trace", "0")...)
			dt, rt := invoke(t, append(base, "--trace", "1")...)
			for _, c := range []struct {
				r     result
				d     detail
				names []struct{ Name, Unit string }
			}{{r1, d1, decl.EndToEnd}, {r2, d2, decl.EndToEnd}, {rt, dt, decl.PerLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted < 1 {
					t.Errorf("trace=%d: correct=%v attempted=%d failed=%d: %v",
						c.d.Trace, c.r.Correct, c.r.Attempted, c.r.Failed, c.d.Failures)
				}
				if len(c.r.Metrics) != len(c.names) {
					t.Errorf("trace=%d: %d metrics, BENCHMARK.json declares %d", c.d.Trace, len(c.r.Metrics), len(c.names))
				}
				for _, n := range c.names {
					m, ok := c.r.Metrics[n.Name]
					if !ok || m.Unit != n.Unit {
						t.Errorf("trace=%d: metric %s = %+v, want unit %q", c.d.Trace, n.Name, m, n.Unit)
					}
				}
			}
			// Pass k runs on the same inputs in every run of a seed.
			for _, other := range [][]string{d2.Digests, dt.Digests} {
				for k := 0; k < len(d1.Digests) && k < len(other); k++ {
					if d1.Digests[k] != other[k] {
						t.Errorf("pass %d: digest %s vs %s", k, d1.Digests[k], other[k])
					}
				}
			}
			// The number of repetitions follows the clock, so only the
			// outputs, not the attempted count, must repeat.
			for name, m := range r1.Metrics {
				if strings.HasPrefix(name, "rel_err.") && m.Value != r2.Metrics[name].Value {
					t.Errorf("%s differs between runs of one seed: %v vs %v", name, m.Value, r2.Metrics[name].Value)
				}
			}
		})
	}
}

// TestAccuracyMatchesHarness checks that the re-driven accuracy pass
// reproduces internal/harness's tables cell for cell in each workload's
// windowing: tumbling, late data, and decayed sliding windows.
func TestAccuracyMatchesHarness(t *testing.T) {
	for name, w := range workloads() {
		spec := w.scaledAccuracy(0.05)
		tables, err := spec.harnessTables(11)
		if err != nil {
			t.Fatal(err)
		}
		obs := newObserver()
		r, err := accuracyPass(spec, 11, nil, obs, monotonic(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.matches(tables); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if obs.failed != 0 {
			t.Errorf("%s: %d failed windows: %v", name, obs.failed, obs.failures)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestUDDCollapses(t *testing.T) {
	a := 0.001
	for c := 0; c < 5; c++ {
		got, err := uddCollapses(0.001, a)
		if err != nil || got != c {
			t.Fatalf("uddCollapses(α after %d collapses) = %d, %v", c, got, err)
		}
		a = 2 * a / (1 + a*a)
	}
	if _, err := uddCollapses(0.001, 0.5); err == nil {
		t.Fatal("want an error for an α off the collapse chain")
	}
}
