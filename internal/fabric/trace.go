package fabric

import (
	"fmt"

	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file integrates the flight recorder (internal/trace) into the
// fabric: port-location helpers, the per-port recn.Tracer taps, the
// congestion-root resolver used by the tree timeline, and the periodic
// metrics sampler. With Config.Tracer nil every hook below reduces to a
// single nil comparison on the hot path and nothing here runs.

// loc returns the trace location of a switch output port or NIC
// injection port.
func (u *egressUnit) loc() trace.Loc {
	if u.sw != nil {
		return trace.Loc{Node: int32(u.sw.id), Port: int32(u.port), Dir: trace.DirOut}
	}
	return trace.Loc{Node: int32(u.nic.host), Dir: trace.DirInj}
}

// loc returns the trace location of a switch input port.
func (u *ingressUnit) loc() trace.Loc {
	return trace.Loc{Node: int32(u.sw.id), Port: int32(u.port), Dir: trace.DirIn}
}

// hostLoc returns the reception-side location of a host.
func (nic *NIC) hostLoc() trace.Loc {
	return trace.Loc{Node: int32(nic.host), Dir: trace.DirHost}
}

// saqTap adapts the recorder to recn.Tracer for one port. One tap is
// installed per RECN controller at build time; its location is fixed.
type saqTap struct {
	rec *trace.Recorder
	loc trace.Loc
}

func (t saqTap) SAQAlloc(line, uid int, path pkt.Path) {
	t.rec.Record(trace.EvSAQAlloc, t.loc, path.Key(), int64(line), int64(uid), 0)
}

func (t saqTap) SAQDealloc(line, uid int, path pkt.Path) {
	t.rec.Record(trace.EvSAQDealloc, t.loc, path.Key(), int64(line), int64(uid), 0)
}

func (t saqTap) CAMLookup(hit bool) {
	if hit {
		t.rec.Record(trace.EvCAMHit, t.loc, "", 0, 0, 0)
	} else {
		t.rec.Record(trace.EvCAMMiss, t.loc, "", 0, 0, 0)
	}
}

var _ recn.Tracer = saqTap{}

// installTracer binds the recorder to the engine and hooks every RECN
// controller. Called once from New, after wiring.
func (n *Network) installTracer(rec *trace.Recorder) error {
	if err := rec.Bind(n.Engine, n.resolveRoot); err != nil {
		return err
	}
	n.rec = rec
	n.base.rec = rec
	n.forEachCtl(func(c saqCtl, loc trace.Loc, _ *shardCtx) { c.SetTracer(saqTap{rec, loc}) })
	if rec.MetricsBin() > 0 {
		n.buildProbes()
	}
	return nil
}

// resolveRoot maps an event's (location, path key) to the name of the
// congestion-tree root the path leads to, by walking the topology.
// Anchoring follows the RECN path conventions: ingress SAQ paths are
// anchored at the port's own switch, egress SAQ paths at the peer
// (downstream) switch — an empty path at an output port means that
// port itself is the root — and NIC injection paths at the attachment
// switch.
func (n *Network) resolveRoot(l trace.Loc, key string) string {
	var sw int
	switch l.Dir {
	case trace.DirOut:
		if key == "" {
			return l.String()
		}
		end := n.topo.Peer(int(l.Node), int(l.Port))
		if end.Kind != topology.KindSwitch {
			return l.String() + "/" + trace.PathString(key)
		}
		sw = end.Switch
	case trace.DirIn:
		sw = int(l.Node)
	case trace.DirInj:
		sw, _ = n.topo.HostAttach(int(l.Node))
	default:
		return l.String()
	}
	for i := 0; i < len(key); i++ {
		port := int(key[i])
		if i == len(key)-1 {
			return fmt.Sprintf("sw%d.out%d", sw, port)
		}
		end := n.topo.Peer(sw, port)
		if end.Kind != topology.KindSwitch {
			// Path runs off the fabric (stale or corrupt); best effort.
			return fmt.Sprintf("sw%d.out%d", sw, port)
		}
		sw = end.Switch
	}
	return l.String()
}

// traceProbe is one precomputed metrics gauge: the series name is built
// once here so the sampling path never formats strings.
type traceProbe struct {
	name string
	fn   func() float64
}

// buildProbes precomputes the metrics gauges: per-port RAM occupancy,
// queue depth (packets), live/blocked SAQ counts, per-SAQ-line
// occupancy, and per-NIC admittance backlog.
func (n *Network) buildProbes() {
	add := func(name string, fn func() float64) {
		n.probes = append(n.probes, traceProbe{name, fn})
	}
	saqProbes := func(prefix string, active func() int, each func(func(*recn.SAQ)), lines int) {
		add(prefix+"/saqs", func() float64 { return float64(active()) })
		add(prefix+"/blocked", func() float64 {
			blocked := 0
			each(func(s *recn.SAQ) {
				if s.Blocked() {
					blocked++
				}
			})
			return float64(blocked)
		})
		for line := 0; line < lines; line++ {
			name := fmt.Sprintf("%s/saq%d", prefix, line)
			line := line
			add(name, func() float64 {
				occ := 0
				each(func(s *recn.SAQ) {
					if s.ID == line {
						occ = s.Q.QueuedBytes()
					}
				})
				return float64(occ)
			})
		}
	}
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in == nil {
				continue
			}
			in := in
			prefix := in.loc().String()
			add(prefix+"/occ", func() float64 { return float64(in.pool.Used()) })
			add(prefix+"/depth", func() float64 {
				d := 0
				in.qs.forEach(func(_ int, q *mempool.Queue) {
					d += q.Packets()
				})
				return float64(d)
			})
			if in.rc != nil {
				saqProbes(prefix, in.rc.ActiveSAQs, in.rc.ForEachSAQ, n.cfg.RECN.MaxSAQs)
			}
		}
		for _, out := range sw.out {
			if out == nil {
				continue
			}
			out := out
			prefix := out.loc().String()
			add(prefix+"/occ", func() float64 { return float64(out.pool.Used()) })
			add(prefix+"/depth", func() float64 {
				d := 0
				out.qs.forEach(func(_ int, q *mempool.Queue) {
					d += q.Packets()
				})
				return float64(d)
			})
			if out.rc != nil {
				saqProbes(prefix, out.rc.ActiveSAQs, out.rc.ForEachSAQ, n.cfg.RECN.MaxSAQs)
			}
		}
	}
	for _, nic := range n.nics {
		nic := nic
		prefix := nic.inj.loc().String()
		add(prefix+"/occ", func() float64 { return float64(nic.inj.pool.Used()) })
		add(prefix+"/backlog", func() float64 { return float64(nic.backlog) })
		if nic.inj.rc != nil {
			saqProbes(prefix, nic.inj.rc.ActiveSAQs, nic.inj.rc.ForEachSAQ, n.cfg.RECN.MaxSAQs)
		}
	}
}

// traceSample is the metrics sampler driver's tick (periodic.go): it
// recurs only while the network has packets or SAQs in flight.
func (n *Network) traceSample() bool {
	now := n.Engine.Now()
	m := n.rec.Metrics()
	for _, p := range n.probes {
		m.Observe(p.name, now, p.fn())
	}
	return n.PendingPackets() > 0 || n.saqsLive()
}
