package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json is what the driver reads; the tables in orchestrate.go
// are what the harness prints. They must name the same things.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []def `json:"end_to_end"`
		PerLayer   []def `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./bench" || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), harness has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	same := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the harness", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: declared %+v, harness has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, harness has %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" {
		t.Error("the first end-to-end metric must be setup_s")
	}
}

func TestContractLineHasExactlyTheDriversKeys(t *testing.T) {
	r := result{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {0.25, "s"}}}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.contractLine()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("contract line %s", r.contractLine())
	}
}

func TestAgree(t *testing.T) {
	set := func(rate float64, digest string, failed int) []result {
		m := map[string]metric{}
		for _, d := range endToEnd {
			m[d.name] = metric{100, d.unit}
		}
		m["work_per_s"] = metric{rate, "1/s"}
		return []result{{
			Workload: "corner64", Seed: 1, Correct: failed == 0, Attempted: 3, Failed: failed,
			Metrics: m, Digest: digest, Counts: map[string]uint64{"events": 7},
		}}
	}
	base := set(100, "d1", 0)
	for _, tc := range []struct {
		name  string
		other []result
		bad   int
	}{
		{"same", set(100, "d1", 0), 0},
		{"within the bound, either way", set(100*(1-endToEnd[1].bound/2), "d1", 0), 0},
		{"faster than the bound allows is no agreement either", set(100*(1+2*endToEnd[1].bound), "d1", 0), 1},
		{"slower than the bound", set(100*(1-2*endToEnd[1].bound), "d1", 0), 1},
		{"another digest", set(100, "d2", 0), 1},
		{"a failed operation", set(100, "d1", 1), 1},
		{"a missing workload", nil, 1},
	} {
		if bad := agree(io.Discard, base, tc.other); bad != tc.bad {
			t.Errorf("%s: %d disagreements, want %d", tc.name, bad, tc.bad)
		}
	}
}
