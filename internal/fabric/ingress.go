package fabric

import (
	"repro/internal/check"
	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ingressUnit is the input side of a switch port. It receives packets
// from the link, holds them in the policy queues (plus SAQs under
// RECN), and requests crossbar transfers toward the output ports. It is
// also the link sink for its port: credits and RECN control addressed
// to the co-located egress unit are dispatched from here.
type ingressUnit struct {
	net  *Network
	sc   *shardCtx
	sw   *Switch
	port int

	pool   mempool.Pool
	qs     queueSet
	active activeList
	rc     *recn.Ingress

	// revCh is the co-located egress unit's channel: credits and
	// upstream RECN messages travel on it.
	revCh *channel

	rr          int
	saqRR       int
	saqScratch  []*recn.SAQ
	wrrDebt     int
	kickPending bool

	// arbitFn is u.arbit bound once, so kick never allocates a method
	// value on the hot path.
	arbitFn func()
}

// init builds the unit in place (units live in slab arenas — see
// fabric.New). rc is this port's slot in the RECN controller arena
// (nil unless the policy uses SAQs). Construction errors (bad pool
// capacity) surface through fabric.New's error return.
func (u *ingressUnit) init(net *Network, sw *Switch, port int, rc *recn.Ingress) error {
	cfg := net.cfg
	u.net = net
	u.sc = net.base
	u.sw = sw
	u.port = port
	if err := u.pool.Init(cfg.PortMemory); err != nil {
		return err
	}
	u.arbitFn = u.arbit
	u.qs.initSide(&u.pool, net.q.in, &cfg)
	u.active.init(u.qs.len(), !cfg.EagerState)
	if rc != nil {
		if err := rc.Init(cfg.RECN, port, &u.pool, u.qs.denseSlice(), u, cfg.EagerState); err != nil {
			return err
		}
		u.rc = rc
	}
	return nil
}

// kick schedules an arbitration attempt (deduplicated).
func (u *ingressUnit) kick() {
	if u.kickPending {
		return
	}
	u.kickPending = true
	u.sc.eng.Schedule(u.sc.eng.Now(), u.arbitFn)
}

// arbit is the crossbar request arbiter for this input port: pick the
// highest-priority eligible head packet whose output lane and output
// buffer are available, and start the transfer. Priorities follow the
// paper: boosted token-owning SAQs, then normal queues, then SAQs, with
// a weighted round-robin so SAQs are not starved.
func (u *ingressUnit) arbit() {
	u.kickPending = false
	if u.sw.inBusy[u.port] {
		return
	}
	if u.rc != nil {
		if u.arbitSAQ(true) {
			return
		}
		if u.wrrDebt >= u.net.cfg.NormalWeight && u.arbitSAQ(false) {
			return
		}
	}
	if u.arbitNormal() {
		return
	}
	if u.rc != nil {
		u.arbitSAQ(false)
	}
}

func (u *ingressUnit) arbitNormal() bool {
	if u.rc != nil {
		// RECN: scan the class queues directly (round-robin) so markers
		// placed by the controller (which bypass the active list) are
		// always peeled.
		n := u.qs.len()
		for i := 0; i < n; i++ {
			idx := (u.rr + i) % n
			q := u.qs.at(idx)
			p, ok := peelHead(q, u.rc.ResolveMarker)
			if !ok || !u.canForward(p, false) {
				continue
			}
			u.rr = idx + 1
			u.wrrDebt++
			u.sw.startTransfer(u, queueHandle{q, idx}, nil, p)
			return true
		}
		return false
	}
	// Round-robin over the non-empty queues; each iteration removes an
	// entry or advances `tried`, so the loop terminates.
	tried := 0
	for u.active.len() > 0 && tried < u.active.len() {
		idx := u.active.at(u.rr % u.active.len())
		q := u.qs.at(idx)
		p, ok := peelHead(q, nil)
		if !ok {
			u.active.remove(idx)
			continue
		}
		if !u.canForward(p, false) {
			u.rr++
			tried++
			continue
		}
		u.rr++
		u.sw.startTransfer(u, queueHandle{q, idx}, nil, p)
		return true
	}
	return false
}

func (u *ingressUnit) arbitSAQ(boostedOnly bool) bool {
	if u.rc.ActiveSAQs() == 0 {
		return false
	}
	saqs := u.saqScratch[:0]
	u.rc.ForEachSAQ(func(s *recn.SAQ) { saqs = append(saqs, s) })
	u.saqScratch = saqs[:0]
	n := len(saqs)
	for i := 0; i < n; i++ {
		s := saqs[(u.saqRR+i)%n]
		// Peel markers first: popping a marker is a control-RAM
		// operation allowed even while the SAQ itself is blocked, and
		// resolving it may unblock another SAQ (or deallocate this
		// one, making s stale for the rest of this iteration).
		p, ok := peelHead(s.Q, u.rc.ResolveMarker)
		if !ok {
			continue
		}
		if boostedOnly && !u.rc.Boosted(s) {
			continue
		}
		if !u.rc.EligibleTx(s) {
			continue
		}
		if !u.canForward(p, true) {
			continue
		}
		u.saqRR = (u.saqRR + i + 1) % n
		u.wrrDebt = 0
		u.sw.startTransfer(u, queueHandle{s.Q, -1}, s, p)
		return true
	}
	return false
}

// canForward checks the crossbar output lane and the output buffer
// admission. fromSAQ additionally honors the target SAQ's internal
// Xon/Xoff gate (paper §3.7: Xoff between SAQs — normal-queue packets
// are never gated). A denial by a congested target is reported to the
// egress controller so this input gets its congestion notification even
// though it cannot store a packet there (see recn.Egress.OnDenied).
func (u *ingressUnit) canForward(p *pkt.Packet, fromSAQ bool) bool {
	if u.sw.upN >= 2 {
		u.steer(p)
	}
	out := int(p.NextTurn())
	ou := u.sw.out[out]
	if ou == nil {
		u.net.fatalf(check.RuleRouting, u.loc(),
			"switch %d route of %v uses unused port %d", u.sw.id, p, out)
	}
	if !ou.admitProbe(p, p.Hop+1) {
		if ou.rc != nil {
			ou.rc.OnDenied(p.Route, p.Hop+1, u.port)
		}
		return false
	}
	if fromSAQ && ou.gated(p, p.Hop+1) {
		return false
	}
	return !u.sw.outBusy[out]
}

// steer re-aims an ascending packet at the best interchangeable up port
// (upN ≥ 2 only under the steering sideband). It only acts when the
// deterministic port carries a congestion hint from downstream;
// alternatives are then scored by local output-buffer occupancy plus a
// full-buffer penalty on ports that are themselves hinted, with the
// original port winning ties — so an unhinted fabric steers nothing and
// behaves exactly like 1Q. The
// choice is recorded as a per-(packet, hop) override — never by mutating
// the shared Route, which the NIC route cache aliases across packets —
// and goes stale the moment the crossbar advances p.Hop, so a steered
// packet still consumes exactly one ascent per level: hints cannot
// create routing loops.
func (u *ingressUnit) steer(p *pkt.Packet) {
	sw := u.sw
	orig := int(p.NextTurn())
	if orig < sw.upLo || orig >= sw.upLo+sw.upN {
		return // descending: the remaining route is forced
	}
	if !sw.out[orig].hintStop {
		// Steering is notification-driven: without a congestion hint on
		// the deterministic port the packet stays on it. Chasing queue
		// depth alone would reorder every flow all the time and (by
		// herding every input to the momentarily shortest queue)
		// degrade uniform traffic the hints never complained about.
		return
	}
	penalty := u.net.cfg.PortMemory
	score := func(ou *egressUnit) int {
		s := ou.pool.Used()
		if ou.hintStop {
			s += penalty
		}
		return s
	}
	best, bestScore := orig, score(sw.out[orig])
	for c := sw.upLo; c < sw.upLo+sw.upN; c++ {
		ou := sw.out[c]
		if c == orig || ou == nil || ou.ch == nil {
			continue
		}
		if s := score(ou); s < bestScore {
			best, bestScore = c, s
		}
	}
	if u.net.check != nil && (best < sw.upLo || best >= sw.upLo+sw.upN) {
		u.net.check.Fatalf(check.RuleSteering, u.loc(),
			"steered %v to port %d outside up range [%d, %d)", p, best, sw.upLo, sw.upLo+sw.upN)
	}
	p.OvSet = true
	p.OvHop = int32(p.Hop)
	p.OvTurn = pkt.Turn(best)
}

// --- linkSink ---

// arriveData stores a packet arriving over the link. Credits guarantee
// space; mempool panics otherwise (a flow-control bug).
func (u *ingressUnit) arriveData(p *pkt.Packet) {
	if u.sc.rec != nil {
		u.sc.rec.RecordPacket(trace.EvRecv, u.loc(), p.ID, p.Size, p.Src, p.Dst)
	}
	var s *recn.SAQ
	if u.rc != nil {
		s = u.rc.Classify(p.Route, p.Hop)
	}
	h := u.qs.pick(s, p, p.Hop)
	h.q.Push(p.Size, p)
	if h.idx >= 0 {
		u.active.add(h.idx)
	}
	if u.rc != nil {
		u.rc.OnStored(s, p.Size)
	}
	// Arrival is an event-context call; arbitrate synchronously rather
	// than paying for a zero-delay event.
	u.arbit()
}

// arriveCredit hands a returned credit to the co-located egress unit.
func (u *ingressUnit) arriveCredit(c creditMsg) {
	u.sw.out[u.port].addCredit(c)
}

// arriveCtl dispatches RECN control: notifications and Xon/Xoff address
// the co-located egress unit; tokens address this ingress.
func (u *ingressUnit) arriveCtl(m recn.CtlMsg) {
	switch m.Kind {
	case recn.MsgToken:
		if u.rc != nil {
			u.rc.OnTokenFromUpstream(m.Path, m.Refused)
		}
	case recn.MsgNotify:
		out := u.sw.out[u.port]
		if out.rc != nil {
			out.rc.OnUpstreamNotification(m.Path)
			// A marker may have been placed in the normal queue; make
			// sure the arbiter runs so it can be peeled even if no
			// further packets arrive.
			out.ch.kick()
			u.sc.arm(drvSweep)
		}
	case recn.MsgXoff:
		out := u.sw.out[u.port]
		if out.rc != nil {
			out.rc.OnXoffFromDownstream(m.Path)
		}
	case recn.MsgXon:
		out := u.sw.out[u.port]
		if out.rc != nil {
			out.rc.OnXonFromDownstream(m.Path)
			out.ch.kick() // the SAQ may transmit again
		}
	case recn.MsgHintOn:
		// ARN: the switch this port feeds reports congestion; the local
		// steering arbiters now penalize this output. Advisory only — no
		// kick needed, hints never gate a transmission.
		u.sw.out[u.port].hintStop = true
	case recn.MsgHintOff:
		u.sw.out[u.port].hintStop = false
	}
}

// auditResident reports the resident bytes the upstream sender's
// credits protect: the whole port RAM for port-level credits (queue -1;
// SAQs share the same pool), one queue under the VOQ policies.
func (u *ingressUnit) auditResident(queue int) int {
	if queue < 0 {
		return u.pool.Used()
	}
	if q := u.qs.at(queue); q != nil {
		return q.ResidentBytes()
	}
	return 0
}

// reverseQuiet reports whether the credit-carrying reverse direction of
// this port's link is silent.
func (u *ingressUnit) reverseQuiet(now sim.Time) bool { return u.revCh.quiet(now) }

// --- recn.IngressEffects ---

// SendUpstream transmits a RECN control message on the reverse link.
func (u *ingressUnit) SendUpstream(m recn.CtlMsg) {
	if u.sc.rec != nil {
		switch m.Kind {
		case recn.MsgNotify:
			u.sc.rec.Record(trace.EvNotify, u.loc(), m.Path.Key(), 0, 0, 0)
		case recn.MsgXoff:
			u.sc.rec.Record(trace.EvXoff, u.loc(), m.Path.Key(), 0, 0, 0)
		case recn.MsgXon:
			u.sc.rec.Record(trace.EvXon, u.loc(), m.Path.Key(), 0, 0, 0)
		}
	}
	u.revCh.pushCtl(m)
}

// TokenToEgress returns a branch token to a local output port.
func (u *ingressUnit) TokenToEgress(egress int, rest pkt.Path) {
	ou := u.sw.out[egress]
	if ou == nil || ou.rc == nil {
		u.net.fatalf(check.RuleInternal, u.loc(),
			"token to unused port %d of switch %d", egress, u.sw.id)
	}
	if u.sc.rec != nil {
		// Recorded at the receiving egress with the remaining path:
		// `rest` is anchored exactly as that port's own SAQ paths are
		// (empty = the port itself is the root).
		u.sc.rec.Record(trace.EvToken, ou.loc(), rest.Key(), 0, 1, 0)
	}
	ou.rc.OnTokenFromIngress(u.port, rest)
}

var _ linkSink = (*ingressUnit)(nil)
var _ recn.IngressEffects = (*ingressUnit)(nil)
