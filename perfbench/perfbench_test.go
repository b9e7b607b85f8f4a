package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the metric
// tables together: same workloads, same metric names, same units.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	for _, tc := range []struct {
		name  string
		json  []entry
		table []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", tc.name, len(tc.json), len(tc.table))
			continue
		}
		for i, m := range tc.table {
			if tc.json[i].Name != m.name || tc.json[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), table %s (%s)", tc.name, i, tc.json[i].Name, tc.json[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestSmoke runs every workload at a small size, plain and traced, and
// checks that it passes its correctness checks and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: name, seed: 7, trace: trace, size: 0.05, dir: dir})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.name)
				case got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v %s", name, trace, m.name, got.Value, got.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}
