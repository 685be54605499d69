package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// walkSAQUsage is SAQUsage computed the long way: a visit to every
// RECN controller of every port.
func walkSAQUsage(n *Network) (total, maxIngress, maxEgress int) {
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in != nil && in.rc != nil {
				total += in.rc.ActiveSAQs()
				maxIngress = max(maxIngress, in.rc.ActiveSAQs())
			}
		}
		for _, out := range sw.out {
			if out != nil && out.rc != nil {
				total += out.rc.ActiveSAQs()
				maxEgress = max(maxEgress, out.rc.ActiveSAQs())
			}
		}
	}
	for _, nic := range n.nics {
		if nic.inj.rc != nil {
			total += nic.inj.rc.ActiveSAQs()
			maxEgress = max(maxEgress, nic.inj.rc.ActiveSAQs())
		}
	}
	return total, maxIngress, maxEgress
}

// TestSAQCensusMatchesWalk: the per-shard SAQ census SAQUsage reads
// agrees with a walk over every port — total and both per-port maxima —
// every microsecond of a RECN hotspot run and after the drain, on the
// MIN, the fat tree and the mesh, serially and on two shards.
func TestSAQCensusMatchesWalk(t *testing.T) {
	c, err := traffic.Corner(2, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	c.HotStart, c.HotEnd, c.SimEnd = 2*sim.Microsecond, 30*sim.Microsecond, 40*sim.Microsecond
	topos := []struct {
		name  string
		build func() (Topology, error)
	}{
		{"min", func() (Topology, error) { return topology.ForHosts(64) }},
		{"fattree", func() (Topology, error) { return topology.NewFatTree(64) }},
		{"mesh", func() (Topology, error) { return topology.NewMesh(8, 8) }},
	}
	for _, tp := range topos {
		for _, rt := range []struct {
			name   string
			shards int
		}{{"serial", 0}, {"shards2", 2}} {
			shards := rt.shards
			t.Run(tp.name+"/"+rt.name, func(t *testing.T) {
				t.Parallel()
				topo, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(topo)
				cfg.Policy = PolicyRECN
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if shards > 0 {
					if _, err := n.Shard(shards); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.Install(n.Traffic()); err != nil {
					t.Fatal(err)
				}
				peak := 0
				compare := func() {
					t.Helper()
					total, maxIn, maxOut := n.SAQUsage()
					wTotal, wIn, wOut := walkSAQUsage(n)
					if total != wTotal || maxIn != wIn || maxOut != wOut {
						t.Fatalf("at %v: census %d (max ingress %d, egress %d), walk %d (%d, %d)",
							n.Engine.Now(), total, maxIn, maxOut, wTotal, wIn, wOut)
					}
					peak = max(peak, total)
				}
				var sample func()
				sample = func() {
					compare()
					if n.Engine.Now() < c.SimEnd {
						n.Engine.After(sim.Microsecond, sample)
					}
				}
				n.Engine.Schedule(0, sample)
				if shards > 0 {
					n.DrainWindowed()
				} else {
					n.Engine.Drain()
				}
				compare()
				if err := n.InjectErr(); err != nil {
					t.Fatal(err)
				}
				if peak == 0 {
					t.Fatal("the hotspot allocated no SAQs")
				}
				if total, _, _ := n.SAQUsage(); total != 0 {
					t.Fatalf("%d SAQs live after the drain", total)
				}
			})
		}
	}
}
