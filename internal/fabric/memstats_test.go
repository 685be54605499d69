package fabric

import (
	"testing"

	"repro/internal/topology"
)

// An eagerly built network must report, at construction time, exactly
// the footprint the analytic model predicts — the model is the
// denominator of every lazy/eager ratio the scaling figure prints, so
// any drift between the two silently corrupts the figure. The topology
// axis pins the credit rule (queue-level credits toward switch peers
// only) where switch-facing and host-facing port counts differ.
func TestEagerMemStatsMatchesModel(t *testing.T) {
	topos := []struct {
		name  string
		build func() (Topology, error)
	}{
		{"min", func() (Topology, error) { return topology.ForHosts(64) }},
		{"fattree", func() (Topology, error) { return topology.NewFatTree(64) }},
		{"mesh", func() (Topology, error) { return topology.NewMesh(8, 8) }},
	}
	for _, p := range Policies {
		t.Run(p.String(), func(t *testing.T) {
			for _, tp := range topos {
				t.Run(tp.name, func(t *testing.T) {
					topo, err := tp.build()
					if err != nil {
						t.Fatal(err)
					}
					cfg := DefaultConfig(topo)
					cfg.Policy = p
					cfg.EagerState = true
					net, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := net.MemStats()
					want := EagerMemModel(cfg)
					if got != want {
						t.Errorf("eager MemStats() = %+v\nEagerMemModel  = %+v", got, want)
					}
				})
			}
		})
	}
}

// The lazy fabric must start out paying only page tables: a fraction
// of the eager model before any traffic, for the policies with
// O(hosts) per-port state.
func TestLazyConstructionFootprint(t *testing.T) {
	topo, err := topology.ForHosts(256)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo)
	cfg.Policy = PolicyVOQnet
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy := net.MemStats()
	eager := EagerMemModel(cfg)
	if lazy.StateBytes <= 0 || eager.StateBytes <= 0 {
		t.Fatalf("degenerate footprints: lazy %d, eager %d", lazy.StateBytes, eager.StateBytes)
	}
	if ratio := float64(lazy.StateBytes) / float64(eager.StateBytes); ratio > 0.10 {
		t.Errorf("untouched lazy VOQnet fabric pays %.1f%% of the eager footprint (want ≤ 10%%): lazy %d B, eager %d B",
			100*ratio, lazy.StateBytes, eager.StateBytes)
	}
}
