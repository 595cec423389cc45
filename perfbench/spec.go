package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec mirrors BENCHMARK.json at the repository root: the metric
// names, units, directions and bounds the benchmark reports against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// checkEmitted verifies that a run emits exactly the metric set the spec
// declares for its mode, so BENCHMARK.json and the code cannot drift.
func (s *benchSpec) checkEmitted(trace bool, got map[string]float64) error {
	want := s.EndToEnd
	if trace {
		want = s.PerLayer
	}
	var missing, extra []string
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for k := range got {
		if !names[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		return fmt.Errorf("emitted metrics differ from BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return nil
}

// Gated end-to-end metric names. Every workload reports all of them; the
// workload's own names for the same numbers are listed in namedGate.
const (
	mSetup      = "setup_s"
	mLatP50     = "latency_p50_ms"
	mLatTail    = "latency_tail_ms"
	mThroughput = "throughput_per_s"
	mHeap       = "heap_peak_mb"
)

// namedMetric is a workload's own name for a number, as the result file and the
// report use it. gate names the BENCHMARK.json metric whose bound compare
// mode applies ("" = no bound: a per-seed property of the generated
// instance, or a latency too noisy on a shared machine to gate; README.md
// says which and why).
type namedMetric struct {
	unit, better, gate string
}

var namedMetrics = map[string]namedMetric{
	"setup_s":               {"s", "lower", mSetup},
	"heap_peak_mb":          {"MB", "lower", mHeap},
	"error_ratio":           {"ratio", "lower", ""},
	"step_ms_p50":           {"ms", "lower", mLatP50},
	"step_ms_p90":           {"ms", "lower", mLatTail},
	"samples_per_s":         {"1/s", "higher", mThroughput},
	"time_to_target_s":      {"s", "lower", ""},
	"iters_to_target":       {"count", "lower", ""},
	"energy_gap":            {"ratio", "lower", ""},
	"cut_ratio":             {"ratio", "higher", ""},
	"p50_ms.low":            {"ms", "lower", mLatP50},
	"p50_ms.high":           {"ms", "lower", ""},
	"p75_ms.low":            {"ms", "lower", mLatTail},
	"p90_ms.low":            {"ms", "lower", ""},
	"p90_ms.high":           {"ms", "lower", ""},
	"p99_ms.high":           {"ms", "lower", ""},
	"p99_ms.low":            {"ms", "lower", ""},
	"max_rate_at_slo":       {"1/s", "higher", ""},
	"saturated_reads_per_s": {"1/s", "higher", mThroughput},
}
