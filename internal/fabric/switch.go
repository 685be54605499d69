package fabric

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Switch is one 8-port switch: input and output buffered ports joined
// by a multiplexed 12 Gbps crossbar (paper §3.2, §4.1). A transfer
// holds one crossbar input lane and one output lane for the packet's
// serialization time; the per-input-port arbiters grant requests when
// both lanes and the output buffer are available.
type Switch struct {
	net *Network
	sc  *shardCtx
	id  int

	in  []*ingressUnit // nil entries for unused ports
	out []*egressUnit

	inBusy  []bool
	outBusy []bool

	// Adaptive-routing notification state (steering sideband only;
	// zero otherwise). upLo/upN is the interchangeable up-port range
	// from the topology's AlternateRouter capability (upN == 0 when the
	// topology lacks it or the switch has no alternatives). congOut
	// counts output ports whose hint is currently on; the 0↔1
	// transitions broadcast hint-on/hint-off to every upstream neighbor.
	upLo, upN int
	congOut   int
}

// init builds the switch in place (switches live in a slab arena — see
// fabric.New). Port units come from the network's arenas: slot id*ports+p
// for port p, so a switch's units are contiguous and built in port order.
func (sw *Switch) init(net *Network, id int) error {
	topo := net.topo
	ports := topo.PortsPerSwitch()
	sw.net = net
	sw.sc = net.base
	sw.id = id
	sw.in = make([]*ingressUnit, ports)
	sw.out = make([]*egressUnit, ports)
	sw.inBusy = make([]bool, ports)
	sw.outBusy = make([]bool, ports)
	for p := 0; p < ports; p++ {
		if topo.Peer(id, p).Kind == topology.KindNone {
			continue
		}
		slot := id*ports + p
		var rcIn *recn.Ingress
		var rcOut *recn.Egress
		if net.rcInSlab != nil {
			rcIn = &net.rcInSlab[slot]
			rcOut = &net.rcOutSlab[slot]
		}
		in := &net.inSlab[slot]
		if err := in.init(net, sw, p, rcIn); err != nil {
			return err
		}
		out := &net.outSlab[slot]
		if err := out.init(net, sw, p, false, rcOut); err != nil {
			return err
		}
		sw.in[p] = in
		sw.out[p] = out
	}
	if net.q.side == sideSteer {
		if ar, ok := topo.(AlternateRouter); ok {
			sw.upLo, sw.upN = ar.UpPortRange(id)
		}
	}
	return nil
}

// hintTransition reacts to one output port's hint flipping: it keeps
// the congested-output census and broadcasts hint-on when the switch
// gains its first congested output, hint-off when it loses its last.
// Hints go to every wired switch-facing input's reverse channel — NICs
// never steer, so host-facing ports are skipped.
func (sw *Switch) hintTransition(on bool) {
	if on {
		sw.congOut++
		if sw.congOut == 1 {
			sw.broadcastHint(recn.MsgHintOn)
		}
		return
	}
	sw.congOut--
	if sw.congOut == 0 {
		sw.broadcastHint(recn.MsgHintOff)
	}
}

func (sw *Switch) broadcastHint(kind recn.MsgKind) {
	topo := sw.net.topo
	for p, in := range sw.in {
		if in == nil || topo.Peer(sw.id, p).Kind != topology.KindSwitch {
			continue
		}
		in.revCh.pushCtl(recn.CtlMsg{Kind: kind})
	}
}

// wire connects every used port's outgoing channel to its peer and
// pairs each ingress with its reverse channel. An inconsistent
// topology (Peer answers that flip between construction and wiring, or
// point at an unused peer port) is a validation error, not a panic.
func (sw *Switch) wire() error {
	topo := sw.net.topo
	for p, out := range sw.out {
		if out == nil {
			continue
		}
		end := topo.Peer(sw.id, p)
		switch end.Kind {
		case topology.KindHost:
			if end.Host < 0 || end.Host >= len(sw.net.nics) {
				return fmt.Errorf("fabric: switch %d port %d wired to nonexistent host %d", sw.id, p, end.Host)
			}
			out.attach(sw.net.nics[end.Host], true)
		case topology.KindSwitch:
			if end.Switch < 0 || end.Switch >= len(sw.net.switches) {
				return fmt.Errorf("fabric: switch %d port %d wired to nonexistent switch %d", sw.id, p, end.Switch)
			}
			peer := sw.net.switches[end.Switch]
			if end.Port < 0 || end.Port >= len(peer.in) || peer.in[end.Port] == nil {
				return fmt.Errorf("fabric: switch %d port %d wired to unused port %d of switch %d", sw.id, p, end.Port, end.Switch)
			}
			out.attach(peer.in[end.Port], false)
		default:
			return fmt.Errorf("fabric: wiring unused port %d of switch %d", p, sw.id)
		}
		sw.in[p].revCh = out.ch
	}
	return nil
}

// kickAllInputs re-arbitrates every input port (an output lane or
// output buffer resource was freed). The arbiters run synchronously:
// they are only ever invoked from event context (transfer/transmission
// completions), never from inside another arbiter, and a run either
// starts a timed transfer or does nothing — so this is equivalent to
// the zero-delay events it replaces at a fraction of the event-queue
// cost.
func (sw *Switch) kickAllInputs() {
	for _, in := range sw.in {
		if in != nil {
			in.arbit()
		}
	}
}

// xferRec carries one in-flight crossbar transfer from grant to
// completion. Records are pooled on the Network so granting a transfer
// never allocates.
type xferRec struct {
	sw  *Switch
	in  *ingressUnit
	h   queueHandle
	s   *recn.SAQ
	p   *pkt.Packet
	out int
}

// xferDoneEvent completes a crossbar transfer. The record is recycled
// before completeTransfer runs: completion re-arbitrates every input
// port, which may synchronously grant transfers needing fresh records.
func xferDoneEvent(arg any) {
	x := arg.(*xferRec)
	sw, in, h, s, p, out := x.sw, x.in, x.h, x.s, x.p, x.out
	sw.sc.freeXfer(x)
	sw.sc.liveXfers--
	sw.completeTransfer(in, h, s, p, out)
}

// startTransfer moves a granted packet from an input queue through the
// crossbar into the target output port. Called by the input arbiter
// once eligibility (lanes, admission) has been verified.
func (sw *Switch) startTransfer(in *ingressUnit, h queueHandle, s *recn.SAQ, p *pkt.Packet) {
	out := int(p.NextTurn())
	if sw.net.check != nil && s != nil && !in.rc.EligibleTx(s) {
		sw.net.check.Fatalf(check.RuleXoffTransmit, in.loc(),
			"SAQ %v granted a crossbar transfer while stopped", s.Path)
	}
	sw.inBusy[in.port] = true
	sw.outBusy[out] = true
	h.q.Pop()
	if h.idx >= 0 && h.q.Entries() == 0 {
		in.active.remove(h.idx)
	}
	if sw.net.q.side == sideECN {
		sw.sc.markECN(p, in.pool.Used(), in.loc())
	}
	dur := units.CrossbarRate.Serialize(p.Size)
	x := sw.sc.allocXfer()
	x.sw, x.in, x.h, x.s, x.p, x.out = sw, in, h, s, p, out
	sw.sc.liveXfers++
	sw.sc.eng.AfterArg(dur, xferDoneEvent, x)
}

func (sw *Switch) completeTransfer(in *ingressUnit, h queueHandle, s *recn.SAQ, p *pkt.Packet, out int) {
	sw.inBusy[in.port] = false
	sw.outBusy[out] = false
	// The packet left the input RAM: release it and return the credit
	// to the upstream sender (paper §4.1: credits are granted when a
	// packet leaves the input port).
	h.q.ReleaseResident(p.Size)
	creditQueue := -1
	if h.idx >= 0 && in.qs.qcap > 0 {
		creditQueue = h.idx // queue-level credits (see egressUnit.attach)
	}
	in.revCh.pushCredit(p.Size, creditQueue)
	if in.rc != nil {
		in.rc.OnDrained(s)
	}
	p.Hop++
	sw.out[out].storePacket(p, in.port)
	sw.kickAllInputs()
}

// markECN is the ECN sideband's marking rule, applied as a packet
// leaves a switch port's RAM: at the crossbar grant on the input side,
// at the link grant on the output side. Marking on dequeue rather than
// enqueue puts the bit on a packet about to cross the bottleneck at
// line rate, so the destination learns of a full buffer after one path
// traversal instead of after the whole backlog ahead of the packet
// drains — the feedback loop closes within the hotspot window, not
// after the run ends. The input side matters as much as the output:
// with credit-based flow control a saturated link's standing backlog
// sits in the input RAM upstream of it, which an output-only check
// never sees.
func (sc *shardCtx) markECN(p *pkt.Packet, used int, loc trace.Loc) {
	if p.Marked || used < sc.n.cfg.Throttle.MarkBytes {
		return
	}
	p.Marked = true
	if sc.rec != nil {
		sc.rec.Record(trace.EvMark, loc, "", int64(p.Src), int64(used), 0)
	}
}
