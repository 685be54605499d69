package fabric

import (
	"fmt"
	"io"

	"repro/internal/check"
	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file integrates the runtime invariant checker (internal/check)
// into the fabric. With Config.Checker nil every hook below reduces to
// a single nil comparison on the hot path and nothing here runs — the
// same compile-out contract as the flight recorder in trace.go.
//
// With a checker attached, a periodic audit event walks the whole
// network and verifies, at event boundaries (where state is always
// consistent — events are atomic):
//
//   - packet conservation: host backlogs + queued packets + crossbar
//     transfers + link flights == injected − delivered;
//   - flow-control conservation: every credit counter within
//     [0, initial] (credits can be lost to faults, never forged);
//   - CAM/SAQ lifecycle: allocs − deallocs == live SAQs == used CAM
//     lines at every controller;
//   - progress: a livelock detector (time advancing, packets pending,
//     no deliveries for a window), plus the wait-for-graph deadlock
//     detector at end-of-run (FinalCheck).
//
// Audits are pure observers: they never mutate fabric state, so a
// checked run produces bit-identical results to an unchecked one.

// checkerState is the audit tick's bookkeeping on the Network.
type checkerState struct {
	// lastDelivered/lastProgressAt drive the livelock detector.
	lastDelivered  uint64
	lastProgressAt sim.Time
}

// saqRanger is the part of the RECN controller interface the audits
// need (both recn.Ingress and recn.Egress implement it).
type saqRanger interface {
	ForEachSAQ(func(*recn.SAQ))
}

// installChecker binds the checker to the engine, the flight recorder
// (when tracing is on) and the congestion snapshot. Called once from
// New, after installTracer.
func (n *Network) installChecker(chk *check.Checker) error {
	if err := chk.Bind(n.Engine, n.rec, n.checkSnapshot); err != nil {
		return err
	}
	n.check = chk
	return nil
}

// Checker returns the attached invariant checker, or nil.
func (n *Network) Checker() *check.Checker { return n.check }

// checkSnapshot writes the diagnostics block attached to every
// violation: global accounting, then the congestion dump (roots, SAQs,
// deep queues).
func (n *Network) checkSnapshot(w io.Writer) {
	fmt.Fprintf(w, "pending=%d injected=%d delivered=%d dropped=%d roots=%d\n",
		n.PendingPackets(), n.InjectedPackets, n.DeliveredPackets, n.DroppedMessages, n.RootCount())
	total, maxIn, maxOut := n.SAQUsage()
	fmt.Fprintf(w, "saqs=%d (max ingress %d, max egress %d) liveXfers=%d\n",
		total, maxIn, maxOut, n.liveXferCount())
	if n.report != nil {
		fmt.Fprintf(w, "faults: %+v\n", *n.report)
	}
	n.DumpCongestion(w)
}

// checkBaseline is the checker driver's arm hook: the livelock window
// starts at the arm instant.
func (n *Network) checkBaseline(at sim.Time) {
	n.checkState.lastDelivered = n.DeliveredPackets
	n.checkState.lastProgressAt = at
}

// checkTick is the checker driver's tick (periodic.go): it recurs only
// while the network has packets or SAQs in flight.
func (n *Network) checkTick() bool {
	n.auditConservation()
	n.auditCreditBounds()
	n.auditSAQLifecycle()
	n.auditThrottle()
	n.auditLivelock()
	n.check.CountAudit()
	return n.PendingPackets() > 0 || n.saqsLive()
}

// queuedPackets counts every packet currently held in a port's queues
// (class/policy queues plus SAQs; markers are not packets). Untouched
// lazy queues hold nothing and are skipped.
func queuedPackets(qs *queueSet, rc saqRanger) int {
	c := 0
	qs.forEach(func(_ int, q *mempool.Queue) {
		c += q.Packets()
	})
	if rc != nil {
		rc.ForEachSAQ(func(s *recn.SAQ) { c += s.Q.Packets() })
	}
	return c
}

// ingressRanger / egressRanger convert the concrete controller pointers
// to saqRanger without wrapping a typed nil in a non-nil interface.
func ingressRanger(rc *recn.Ingress) saqRanger {
	if rc == nil {
		return nil
	}
	return rc
}

func egressRanger(rc *recn.Egress) saqRanger {
	if rc == nil {
		return nil
	}
	return rc
}

// auditConservation verifies the packet census: every injected,
// undelivered packet is in a host backlog, a port queue, the crossbar
// or on a link — nowhere else, and none missing.
func (n *Network) auditConservation() {
	census := uint64(n.liveXferCount())
	for _, nic := range n.nics {
		census += uint64(nic.backlog)
		census += uint64(queuedPackets(&nic.inj.qs, egressRanger(nic.inj.rc)))
		census += uint64(nic.inj.ch.dataFlight())
	}
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in != nil {
				census += uint64(queuedPackets(&in.qs, ingressRanger(in.rc)))
			}
		}
		for _, out := range sw.out {
			if out != nil {
				census += uint64(queuedPackets(&out.qs, egressRanger(out.rc)))
				census += uint64(out.ch.dataFlight())
			}
		}
	}
	if pending := n.PendingPackets(); census != pending {
		n.check.Failf(check.RulePacketConservation, trace.NetLoc,
			"census %d != pending %d (injected %d, delivered %d, crossbar %d)",
			census, pending, n.InjectedPackets, n.DeliveredPackets, n.liveXferCount())
	}
}

// auditCreditBounds verifies every credit counter stays within
// [0, initial]: faults may lose credits (the watchdog restores them)
// but a counter above its initial value means forged credits — the
// receiver-RAM overflow hazard the paper's flow control exists to
// prevent.
func (n *Network) auditCreditBounds() {
	auditUnit := func(u *egressUnit) {
		if u.portCredits < 0 || u.portCredits > u.initPort {
			n.check.Failf(check.RuleCreditBounds, u.loc(),
				"port credits %d outside [0, %d]", u.portCredits, u.initPort)
		}
		u.queueCredits.forEachSlot(func(i int, slot *int) {
			if c := *slot; c < 0 || c > u.initQueue {
				n.check.Failf(check.RuleCreditBounds, u.loc(),
					"queue %d credits %d outside [0, %d]", i, c, u.initQueue)
			}
		})
	}
	for _, sw := range n.switches {
		for _, out := range sw.out {
			if out != nil {
				auditUnit(out)
			}
		}
	}
	for _, nic := range n.nics {
		auditUnit(nic.inj)
	}
}

// auditSAQLifecycle verifies the controller accounting at every RECN
// port: SAQs allocated minus deallocated must equal the live SAQ count
// (the used CAM lines) — a divergence is a leaked or double-freed
// CAM line / SAQ. The ports' counts must also add up to the shard
// censuses SAQUsage reads: total and per-side maxima.
func (n *Network) auditSAQLifecycle() {
	total, maxIn, maxOut := 0, 0, 0
	n.forEachCtl(func(c saqCtl, loc trace.Loc, _ *shardCtx) {
		st, active := c.Stats(), c.ActiveSAQs()
		if live := st.Allocs - st.Deallocs; live != uint64(active) {
			n.check.Failf(check.RuleSAQLifecycle, loc,
				"allocs %d - deallocs %d = %d, active SAQs %d", st.Allocs, st.Deallocs, live, active)
		}
		total += active
		if loc.Dir == trace.DirIn {
			maxIn = max(maxIn, active)
		} else {
			maxOut = max(maxOut, active)
		}
	})
	if t, mi, mo := n.SAQUsage(); t != total || mi != maxIn || mo != maxOut {
		n.check.Failf(check.RuleSAQLifecycle, trace.NetLoc,
			"SAQ census %d (max ingress %d, egress %d), ports hold %d (max ingress %d, egress %d)",
			t, mi, mo, total, maxIn, maxOut)
	}
}

// auditThrottle verifies every source's AIMD pacer contract
// (ECN sideband): the rate never leaves [MinRateMilli, line rate],
// and a below-full rate always has the additive-increase timer armed —
// without it the source would stay throttled forever after congestion
// clears (the recovery guarantee CheckQuiesced asserts at end of run).
func (n *Network) auditThrottle() {
	if n.q.side != sideECN {
		return
	}
	min := n.cfg.Throttle.MinRateMilli
	for _, nic := range n.nics {
		t := nic.thr
		if t == nil {
			continue
		}
		if r := t.state.RateMilli; r < min || r > throttle.FullRateMilli {
			n.check.Failf(check.RuleThrottle, nic.inj.loc(),
				"injection rate %d‰ outside [%d, %d]", r, min, throttle.FullRateMilli)
		}
		if !t.state.Full() && !t.aiArmed {
			n.check.Failf(check.RuleThrottle, nic.inj.loc(),
				"rate %d‰ below full with no additive-increase timer armed", t.state.RateMilli)
		}
	}
}

// auditLivelock flags a network where simulation time keeps advancing
// with packets pending but nothing delivered for a full window —
// subsuming the watchdog's stall counter with a hard failure once the
// recovery layer's repairs have clearly not helped. After a collected
// violation the checker driver turns off so a dead network's event
// queue still drains (and FinalCheck reports the deadlock).
func (n *Network) auditLivelock() {
	st := &n.checkState
	now := n.Engine.Now()
	if n.PendingPackets() == 0 || n.DeliveredPackets != st.lastDelivered {
		st.lastDelivered = n.DeliveredPackets
		st.lastProgressAt = now
		return
	}
	if now-st.lastProgressAt >= n.check.LivelockWindow() {
		cycle := check.CycleString(n.buildWaitGraph().FindCycle())
		if cycle == "" {
			cycle = "none (livelock, not deadlock)"
		}
		n.check.Failf(check.RuleLivelock, trace.NetLoc,
			"%d packets pending, no delivery for %v; wait cycle: %s",
			n.PendingPackets(), n.check.LivelockWindow(), cycle)
		n.drivers[drvChecker].period = 0
	}
}

// buildWaitGraph constructs the wait-for graph at port granularity: an
// input port with a queued packet waits on the output port the packet's
// route selects; an occupied output port waits on the downstream input
// port (or host) its link feeds. A cycle means no packet in it can ever
// make progress — deadlock.
func (n *Network) buildWaitGraph() *check.WaitGraph {
	g := check.NewWaitGraph()
	headEdge := func(from string, swID int, q *mempool.Queue) {
		e, ok := q.Head()
		if !ok || e.IsMarker() {
			return
		}
		if p, ok := e.Data.(*pkt.Packet); ok && p.Hop < len(p.Route) {
			g.Edge(from, fmt.Sprintf("sw%d.out%d", swID, p.NextTurn()))
		}
	}
	headEdges := func(from string, swID int, qs *queueSet, rc saqRanger) {
		qs.forEach(func(_ int, q *mempool.Queue) {
			headEdge(from, swID, q)
		})
		if rc != nil {
			rc.ForEachSAQ(func(s *recn.SAQ) { headEdge(from, swID, s.Q) })
		}
	}
	for _, sw := range n.switches {
		for p, in := range sw.in {
			if in == nil {
				continue
			}
			headEdges(fmt.Sprintf("sw%d.in%d", sw.id, p), sw.id, &in.qs, ingressRanger(in.rc))
		}
		for p, out := range sw.out {
			if out == nil || out.pool.Used() == 0 {
				continue
			}
			from := fmt.Sprintf("sw%d.out%d", sw.id, p)
			end := n.topo.Peer(sw.id, p)
			switch end.Kind {
			case topology.KindSwitch:
				g.Edge(from, fmt.Sprintf("sw%d.in%d", end.Switch, end.Port))
			case topology.KindHost:
				g.Edge(from, fmt.Sprintf("host%d", end.Host))
			}
		}
	}
	for h, nic := range n.nics {
		if nic.inj.pool.Used() > 0 || nic.backlog > 0 {
			g.Edge(fmt.Sprintf("host%d.inj", h), fmt.Sprintf("sw%d.in%d", nic.attachSw, nic.attachPort))
		}
	}
	return g
}

// FinalCheck verifies end-of-run accounting through the checker: with
// packets pending it reports a deadlock (with the wait-for-graph cycle
// in the message), otherwise it runs the quiesce invariants
// (CheckQuiesced) and wraps any failure in a structured violation.
// Without a checker it falls back to CheckQuiesced.
func (n *Network) FinalCheck() error {
	if n.check == nil {
		return n.CheckQuiesced()
	}
	if pending := n.PendingPackets(); pending != 0 {
		cycle := check.CycleString(n.buildWaitGraph().FindCycle())
		if cycle == "" {
			cycle = "none found at port granularity"
		}
		return n.check.Violationf(check.RuleDeadlock, trace.NetLoc,
			"%d packets pending after drain; wait cycle: %s", pending, cycle)
	}
	if err := n.CheckQuiesced(); err != nil {
		return n.check.Violationf(check.RuleQuiesce, trace.NetLoc, "%v", err)
	}
	return nil
}

// fatalf reports a hot-path invariant violation: through the checker
// (stamped, with diagnostics snapshot) when one is attached, otherwise
// as a panic carrying a bare typed *check.Violation.
func (n *Network) fatalf(rule check.Rule, loc trace.Loc, format string, args ...any) {
	if n.check != nil {
		n.check.Fatalf(rule, loc, format, args...)
	}
	panic(check.NewViolation(rule, loc, fmt.Sprintf(format, args...)))
}

// debugLosePacket silently discards one queued packet from the given
// switch input port's first non-empty class queue, without adjusting
// any accounting — a test-only hook that seeds a deliberate
// conservation bug so the test battery can prove the checker catches
// one (see checker_test.go). Returns false when nothing was queued.
func (n *Network) debugLosePacket(sw, port int) bool {
	in := n.switches[sw].in[port]
	if in == nil {
		return false
	}
	lost := false
	in.qs.forEach(func(_ int, q *mempool.Queue) {
		if lost {
			return
		}
		e, ok := q.Head()
		if !ok || e.IsMarker() {
			return
		}
		q.Pop()
		q.ReleaseResident(e.Size)
		lost = true
	})
	return lost
}
