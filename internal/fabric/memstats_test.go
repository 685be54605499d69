package fabric

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// flatFootprint reads, from a freshly built network, the footprint its
// control state would have with every set flat and every RECN
// controller materialized: each queue, credit, destination and
// active-list set contributes its length, each controller its full CAM
// and SAQ table, and each throttled NIC one CNP clock per host. It
// walks the switches, the NICs and forEachCtl, so it counts what New
// actually built rather than what the model assumes.
func flatFootprint(n *Network) stats.MemReport {
	var r memAcc
	unit := func(qs *queueSet, active *activeList) {
		r.Ports++
		r.Queues += qs.len()
		r.PtrSlots += qs.len()
		r.ActiveSlots += active.pos.n
	}
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in != nil {
				unit(&in.qs, &in.active)
			}
		}
		for _, out := range sw.out {
			if out != nil {
				unit(&out.qs, &out.active)
				r.CreditSlots += out.queueCredits.c.n
			}
		}
	}
	for _, nic := range n.nics {
		unit(&nic.inj.qs, &nic.inj.active)
		r.CreditSlots += nic.inj.queueCredits.c.n
		r.DestSlots += nic.dests.n
		r.ActiveSlots += nic.active.pos.n
		if nic.thr != nil {
			r.CreditSlots += n.topo.NumHosts() // lastCNPAt, one clock per source
		}
	}
	n.forEachCtl(func(saqCtl, trace.Loc, *shardCtx) { r.addRC(true, n.cfg.RECN.MaxSAQs) })
	return r.finish()
}

// The analytic eager model must equal the flat footprint of the network
// New builds — the model is the denominator of every lazy/eager ratio
// the scaling figure prints, so any drift between the two silently
// corrupts the figure. The topology axis pins the credit rule
// (queue-level credits toward switch peers only) where switch-facing
// and host-facing port counts differ.
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
					net, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := flatFootprint(net)
					want := EagerMemModel(cfg)
					if got != want {
						t.Errorf("flat footprint = %+v\nEagerMemModel  = %+v", got, want)
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
