package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// The fat-tree hotspot must drain to empty under the full invariant
// checker (deadlock/livelock detection included) for every policy the
// scaling figure compares — the up*/down* deadlock-freedom argument,
// checked rather than assumed.
func TestFatTreeHotspotDrainsAllPolicies(t *testing.T) {
	o := Options{Scale: 0.02}.withDefaults()
	c, err := scalingWorkload(64, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range scalingPolicies {
		r := Run{
			Hosts: 64, Policy: p, Topo: "fattree", Key: "fattree-drain",
			Workload: c.Install, Until: c.SimEnd, DrainAll: true, Check: true,
		}
		res, err := r.Execute()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if res.Delivered == 0 || res.Injected != res.Delivered {
			t.Errorf("%s: injected %d, delivered %d", p, res.Injected, res.Delivered)
		}
	}
}

// The scaling figure itself at test size: four policies, populated
// memory columns, and a lazy/eager ratio below 1 for the O(hosts)
// policy (the figure's whole point).
func TestScalingFigureSmoke(t *testing.T) {
	tb, err := Scaling(64, Options{Scale: 0.02, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(scalingPolicies) {
		t.Fatalf("scaling table has %d rows, want %d", len(tb.Rows), len(scalingPolicies))
	}
	if !strings.Contains(tb.Title, "fattree") {
		t.Errorf("scaling title %q does not name the default fat-tree topology", tb.Title)
	}
	col := map[string]int{}
	for i, h := range tb.Header {
		col[h] = i
	}
	for _, row := range tb.Rows {
		if row[col["state_KB"]] == "n/a" {
			t.Errorf("%s: state_KB column empty", row[0])
		}
		if row[0] == fabric.PolicyVOQnet.String() {
			ratio, err := strconv.ParseFloat(row[col["lazy/eager"]], 64)
			if err != nil {
				t.Fatalf("VOQnet lazy/eager %q: %v", row[col["lazy/eager"]], err)
			}
			if ratio >= 1 {
				t.Errorf("VOQnet lazy/eager ratio %.3f shows no lazy win", ratio)
			}
		}
	}
}

// Acceptance proxy for the 4k figure at test scale: a 256-host fat-tree
// VOQnet hotspot must materialize at most 25% of the eager per-port
// state (the ISSUE's bytes/port budget, asserted where CI can afford to
// run it).
func TestLazyStateWinUnderHotspot(t *testing.T) {
	o := Options{Scale: 0.02}.withDefaults()
	c, err := scalingWorkload(256, 64, o)
	if err != nil {
		t.Fatal(err)
	}
	r := Run{
		Hosts: 256, Policy: fabric.PolicyVOQnet, Topo: "fattree",
		Key: "lazy-win", Workload: c.Install, Until: c.SimEnd,
	}
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem == nil {
		t.Fatal("run result carries no memory accounting")
	}
	eager, err := r.EagerMemModel()
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Mem.StateBytes) / float64(eager.StateBytes)
	if ratio > 0.25 {
		t.Errorf("hotspot VOQnet materialized %.1f%% of eager state (want ≤ 25%%): %d of %d bytes",
			100*ratio, res.Mem.StateBytes, eager.StateBytes)
	}
	if res.Mem.BytesPerPort() <= 0 || eager.BytesPerPort() <= res.Mem.BytesPerPort() {
		t.Errorf("bytes/port not improved: lazy %.0f, eager %.0f", res.Mem.BytesPerPort(), eager.BytesPerPort())
	}
}

// The modeled state is deterministic, so one point of the scaling curve
// is pinned to the byte: the 512-host VOQnet hotspot at scale 0.02
// materializes exactly what it did when the curve was first recorded,
// and stays within the 25% budget of the eager model.
func TestScalingHotspotStateBytes(t *testing.T) {
	const recorded = 70_299_440
	r, err := ScalingRun(512, fabric.PolicyVOQnet, Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	eager, err := r.EagerMemModel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem == nil || res.Mem.StateBytes != recorded {
		t.Errorf("modeled state %+v, want %d bytes (memory model drifted)", res.Mem, recorded)
	}
	if ratio := float64(recorded) / float64(eager.StateBytes); ratio > 0.25 {
		t.Errorf("lazy/eager ratio %.3f exceeds the 25%% budget (eager model %d bytes)", ratio, eager.StateBytes)
	}
}
