package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so the whole harness runs in seconds: the same
// node, loops, checks and replay, on a few hundred transactions.
func (s spec) tiny() spec {
	s.genTxs = 600
	if s.openLoop() {
		s.rate = 300
	} else {
		s.prefix = 300
	}
	return s
}

// benchmarkFile is the part of BENCHMARK.json the result must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
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

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsMatchBenchmarkFile checks that BENCHMARK.json names exactly
// the workloads the command runs.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := workloadNames(), strings.Join(listed, ", "); got != want {
		t.Fatalf("command runs %s, BENCHMARK.json lists %s", got, want)
	}
}

// TestSelfTest runs every workload at tiny sizes, untraced and traced,
// with all correctness checks on, and checks that each result reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSelfTest(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, s := range workloads {
		s := s.tiny()
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := runSpec(s, 7, 2*time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d",
					s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if want[name] != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q",
						s.name, traced, name, m.Unit, want[name])
				}
			}
			if len(got) != len(want) {
				sort.Strings(got)
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %d", s.name, traced, got, len(want))
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestLivelockCountsFailed checks that a block that cannot be mined ends
// the run with its transactions counted as failed instead of hanging it,
// and that the result still encodes.
func TestLivelockCountsFailed(t *testing.T) {
	for _, s := range workloads {
		s := s.tiny()
		// Zero attempts per block: every block counts as livelocked.
		b := &bench{spec: s, seed: 7, dir: t.TempDir(), deadline: time.Now().Add(time.Minute)}
		res, err := b.untracedRun(time.Second)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.Attempted == 0 || res.Failed != res.Attempted {
			t.Fatalf("%s: attempted=%d failed=%d", s.name, res.Attempted, res.Failed)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
}

// TestPercentile pins the nearest-rank percentile the metrics use.
func TestPercentile(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	if got := s.pct(0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := s.pct(0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := s.pct(0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
}
