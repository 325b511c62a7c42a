package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the shape of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's workloads and
// metric names in step with what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program gates %d", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if bj.EndToEnd[i].Name != m.Name || bj.EndToEnd[i].Unit != m.Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, bj.EndToEnd[i], m)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if bj.PerLayer[i].Name != m.Name || bj.PerLayer[i].Unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, bj.PerLayer[i], m)
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "2"},
		{"--workload", "serve", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit code %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q", args, out.String())
		}
	}
}
