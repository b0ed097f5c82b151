package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run is correct and emits exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, wl := range b.Workloads {
		s, ok := workloadSpec(wl.Name, true)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not know", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := run(runOptions{spec: s, seed: 7, window: 400 * time.Millisecond, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestLatencyLimitsMatchBenchmarkFile keeps each workload's goodput latency
// limit, stated in its "why" in BENCHMARK.json, equal to the one the code
// applies.
func TestLatencyLimitsMatchBenchmarkFile(t *testing.T) {
	limit := regexp.MustCompile(`limit (\d+) ms`)
	for _, wl := range readBenchmarkFile(t).Workloads {
		s, ok := workloadSpec(wl.Name, false)
		if !ok {
			t.Fatalf("unknown workload %q", wl.Name)
		}
		m := limit.FindStringSubmatch(wl.Why)
		if m == nil {
			t.Errorf("%s: why %q states no \"limit <n> ms\"", wl.Name, wl.Why)
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if got := time.Duration(n) * time.Millisecond; got != s.limit {
			t.Errorf("%s: BENCHMARK.json states limit %v, the code applies %v", wl.Name, got, s.limit)
		}
	}
}

func TestTailLeavesTenSamples(t *testing.T) {
	for _, n := range []int{1, 12, 75, 1000, 1200} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		got := int(tail(ds))
		beyond := n - got
		switch {
		case n >= 1100 && got != quantileIndex(n, 0.99)+1:
			t.Errorf("n=%d: tail is rank %d, want p99", n, got)
		case got > (n+1)/2 && beyond < 10:
			t.Errorf("n=%d: tail rank %d leaves %d samples beyond it", n, got, beyond)
		}
	}
}
