package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecMatchesWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w := findWorkload(sw.Name)
		if w == nil {
			t.Errorf("workload %q is not in the benchmark", sw.Name)
		} else if w.why != sw.Why {
			t.Errorf("workload %q: BENCHMARK.json why differs from the benchmark's", sw.Name)
		}
	}
}

// TestEveryMetricPrints runs each workload briefly, untraced and traced,
// and checks that exactly the named metrics print, each with its unit, in
// both the metric lines and the final JSON line.
func TestEveryMetricPrints(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", fmt.Sprint(trace), "-dir", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("metric %s ", m.Name)) {
						t.Errorf("metric %s has no metric line", m.Name)
					}
				}
				for _, fact := range []string{"nproc=", "gomaxprocs=", "go=go", "seed=7", "flush_ops=16", "pwb_ns="} {
					if !strings.Contains(out.String(), fact) {
						t.Errorf("run does not print %q", fact)
					}
				}
			})
		}
	}
}

// TestOracleCatchesWrongStore serves a store that keeps nothing: every GET
// of a key the client wrote comes back empty, and the oracle must count it.
func TestOracleCatchesWrongStore(t *testing.T) {
	b := newBench(findWorkload("kv-paced"), 3, t.TempDir())
	gens, _ := b.newGens()
	s, err := b.serve(noopStore{}, nil, gens, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.clients {
		if err := c.preload(b.w.keysPerConn); err != nil {
			t.Fatal(err)
		}
	}
	b.measure(s, 10*time.Millisecond, 200*time.Millisecond, nil, false)
	if err := b.stop(s); err != nil {
		t.Fatal(err)
	}
	if b.failed == 0 {
		t.Fatal("the oracle accepted every reply of a store that keeps nothing")
	}
	if !strings.Contains(strings.Join(b.errs, "\n"), "got") {
		t.Errorf("failures do not describe the mismatch: %v", b.errs)
	}
}
