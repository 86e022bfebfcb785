package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, for about a second
// on a tiny graph with all output checks on, so a broken workload fails
// fast. Each run must report every metric BENCHMARK.json declares for its
// mode, in the declared unit, and the end-to-end ones must not be zero.
// Run it with `go test ./...` from this directory.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(name, w, options{seed: 7, seconds: 1, traced: traced, scale: 0.02, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d first error: %s",
					name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.FirstErr)
			}
			// The result line holds exactly these keys, and each metric in
			// it exactly a value and a unit.
			b, err := json.Marshal(rep.line())
			if err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(b, &line); err != nil {
				t.Fatalf("%s traced=%v: result line %s: %v", name, traced, b, err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s traced=%v: result line keys %v", name, traced, keys(line))
			}
			var lineMetrics map[string]map[string]json.RawMessage
			if err := json.Unmarshal(line["metrics"], &lineMetrics); err != nil {
				t.Errorf("%s traced=%v: result line metrics: %v", name, traced, err)
			}
			for k, m := range lineMetrics {
				if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
					t.Errorf("%s traced=%v: result line metric %s has keys %v", name, traced, k, keys(m))
				}
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rep.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, declared %q", name, traced, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", name, d.Name, m.Value)
				}
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
