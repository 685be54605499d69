package fabric

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/trace"
)

// egressUnit is the output side of a switch port, or a NIC injection
// port (sw == nil). It owns the port's data RAM on the egress side, the
// policy queues (plus a RECN controller when enabled), the outgoing
// link channel and the flow-control credits for the remote input
// buffer.
type egressUnit struct {
	net  *Network
	sc   *shardCtx
	sw   *Switch // nil for NIC injection ports
	nic  *NIC    // nil for switch output ports
	port int     // output port index within the switch (0 for NICs)

	pool   mempool.Pool
	qs     queueSet
	active activeList
	rc     *recn.Egress

	// chSt is the outgoing channel's storage; ch points at it once the
	// unit is attached (nil before — unattached ports have no link).
	chSt       channel
	ch         *channel
	remoteHost bool

	// Flow-control credits toward the remote input buffer: port-level
	// for 1Q/4Q/RECN and host links, queue-level for the VOQ
	// mechanisms (paper §4.1).
	portCredits  int
	queueCredits creditSet
	initPort     int
	initQueue    int
	// lastCreditAt is when a credit was last consumed or returned; the
	// credit auditor only compares counters after a quiet period.
	lastCreditAt sim.Time

	rr         int // round-robin cursor over active normal queues
	saqRR      int // round-robin cursor over SAQs
	saqScratch []*recn.SAQ
	// wrrDebt counts consecutive normal-queue grants; once it reaches
	// NormalWeight an eligible SAQ is served first (the paper's
	// weighted round-robin with normal queues preferred).
	wrrDebt int

	// Adaptive-routing notification state (steering sideband, switch
	// output ports only). hintOn is this port's own congestion flag
	// (hysteresis on pool occupancy; transitions feed the switch-level
	// census that broadcasts hints upstream). hintStop means the switch this port
	// feeds has hinted congestion: the co-located ingress arbiter then
	// penalizes this port when steering (set/cleared by arriveCtl).
	hintOn   bool
	hintStop bool
}

// init builds the unit in place — units live in slab arenas, one
// allocation per kind for the whole fabric; channels and credits are
// wired later. rc is this port's slot in the RECN controller arena
// (nil unless the policy uses SAQs). Construction errors (bad pool
// capacity) surface through fabric.New's error return.
func (u *egressUnit) init(net *Network, sw *Switch, port int, terminal bool, rc *recn.Egress) error {
	cfg := net.cfg
	u.net = net
	u.sc = net.base
	u.sw = sw
	u.port = port
	if err := u.pool.Init(cfg.PortMemory); err != nil {
		return err
	}
	u.qs.initSide(&u.pool, net.q.out, &cfg)
	u.active.init(u.qs.len())
	if rc != nil {
		if err := rc.Init(cfg.RECN, port, &u.pool, u.qs.denseSlice(), terminal, u); err != nil {
			return err
		}
		u.rc = rc
	}
	return nil
}

// attach wires the outgoing channel and initializes credits for the
// remote input buffer: queue-level toward a switch whose input queues
// own a fixed share of the RAM (paper §4.1: "a credit-based flow
// control at the queue level has been implemented for the VOQ
// mechanisms"), port-level otherwise.
func (u *egressUnit) attach(sink linkSink, remoteHost bool) {
	u.ch = &u.chSt
	u.ch.init(u.sc, u, sink)
	u.ch.loc = u.loc()
	u.remoteHost = remoteHost
	cfg := u.net.cfg
	u.portCredits = cfg.PortMemory
	u.initPort = cfg.PortMemory
	if in := u.net.q.in; !remoteHost {
		if n, qcap := in.plan(&cfg); qcap > 0 {
			u.initQueue = qcap
			u.queueCredits.init(n, qcap, in.paged())
		}
	}
}

// creditIndex returns the remote ingress queue a packet will occupy
// (queue-level credits), or -1 for port-level credit accounting.
func (u *egressUnit) creditIndex(p *pkt.Packet) int {
	if !u.queueCredits.enabled() {
		return -1
	}
	return u.net.q.in.classify(nil, p, p.Hop)
}

func (u *egressUnit) hasCredit(p *pkt.Packet) bool {
	if idx := u.creditIndex(p); idx >= 0 {
		return u.queueCredits.value(idx) >= p.Size
	}
	return u.portCredits >= p.Size
}

func (u *egressUnit) consumeCredit(p *pkt.Packet) {
	u.lastCreditAt = u.sc.eng.Now()
	if idx := u.creditIndex(p); idx >= 0 {
		*u.queueCredits.slot(idx) -= p.Size
		return
	}
	u.portCredits -= p.Size
}

// addCredit applies a returned credit and retries transmission.
func (u *egressUnit) addCredit(c creditMsg) {
	u.lastCreditAt = u.sc.eng.Now()
	if c.queue >= 0 && u.queueCredits.enabled() {
		*u.queueCredits.slot(c.queue) += c.bytes
	} else {
		u.portCredits += c.bytes
	}
	u.ch.kick()
}

// checkCredits verifies all credits returned (quiesce invariant).
// Untouched lazy counters hold exactly the initial value, so only
// materialized slots need the comparison.
func (u *egressUnit) checkCredits() error {
	if u.portCredits != u.initPort {
		return fmt.Errorf("port credits %d, want %d", u.portCredits, u.initPort)
	}
	var err error
	u.queueCredits.forEachSlot(func(i int, slot *int) {
		if err == nil && *slot != u.initQueue {
			err = fmt.Errorf("queue %d credits %d, want %d", i, *slot, u.initQueue)
		}
	})
	return err
}

// admitProbe reports whether a packet can be accepted right now (buffer
// space only). hop is the route position after this port (p.Hop+1 when
// probing from the crossbar, p.Hop at a NIC). Probes never materialize
// a lazy queue — an untouched destination queue answers from the pool
// headroom alone.
func (u *egressUnit) admitProbe(p *pkt.Packet, hop int) bool {
	return u.qs.admits(u.saq(p, hop), p, hop)
}

// saq returns the SAQ this port's RECN controller matches for a packet
// (nil without a match or without a controller).
func (u *egressUnit) saq(p *pkt.Packet, hop int) *recn.SAQ {
	if u.rc == nil {
		return nil
	}
	return u.rc.Classify(p.Route, hop)
}

// gated reports the internal Xon/Xoff stop signal of the target SAQ
// (paper §3.7). It applies only to transmissions from same-switch
// ingress SAQs (and the NIC admittance pump) — never to normal-queue
// packets, which would otherwise suffer the very HOL blocking RECN
// eliminates.
func (u *egressUnit) gated(p *pkt.Packet, hop int) bool {
	return u.rc != nil && u.rc.GatedInternally(p.Route, hop)
}

// storePacket accepts a packet into the port (from the crossbar, or
// from the NIC admittance pump with fromIngress == -1). The packet's
// Hop must already point at the next switch.
func (u *egressUnit) storePacket(p *pkt.Packet, fromIngress int) {
	s := u.saq(p, p.Hop)
	h := u.qs.pick(s, p, p.Hop)
	h.q.Push(p.Size, p)
	if h.idx >= 0 {
		u.active.add(h.idx)
	}
	if u.rc != nil {
		u.rc.OnStored(s, fromIngress, p.Size)
	}
	if u.sw != nil && u.net.q.side == sideSteer {
		u.updateHint()
	}
	u.ch.kick()
}

// updateHint runs the per-port congestion hysteresis (steering
// sideband, switch output ports only) and feeds transitions into the
// switch-level census that broadcasts hints upstream.
func (u *egressUnit) updateHint() {
	used := u.pool.Used()
	cfg := &u.net.cfg.ARN
	if !u.hintOn && used >= cfg.HintOnBytes {
		u.hintOn = true
		if u.sc.rec != nil {
			u.sc.rec.Record(trace.EvHint, u.loc(), "on", int64(used), 0, 0)
		}
		u.sw.hintTransition(true)
	} else if u.hintOn && used < cfg.HintOffBytes {
		u.hintOn = false
		if u.sc.rec != nil {
			u.sc.rec.Record(trace.EvHint, u.loc(), "off", int64(used), 0, 0)
		}
		u.sw.hintTransition(false)
	}
}

// pickData implements dataSource: the output link arbiter (paper §4.1:
// weighted round robin, normal queues preferred over SAQs, boosted
// token-owning SAQs first).
func (u *egressUnit) pickData() *txOrigin {
	if u.rc != nil {
		// Highest priority: near-empty token-owning SAQs (paper §3.8).
		if o := u.pickSAQ(true); o != nil {
			return o
		}
		if u.wrrDebt >= u.net.cfg.NormalWeight {
			if o := u.pickSAQ(false); o != nil {
				return o
			}
		}
	}
	if o := u.pickNormal(); o != nil {
		return o
	}
	if u.rc != nil {
		return u.pickSAQ(false)
	}
	return nil
}

func (u *egressUnit) pickNormal() *txOrigin {
	if u.rc != nil {
		// RECN: scan the class queues directly (round-robin) so markers
		// placed by the controller (which bypass the active list) are
		// always peeled.
		n := u.qs.len()
		for i := 0; i < n; i++ {
			idx := (u.rr + i) % n
			q := u.qs.at(idx)
			p, ok := peelHead(q, u.rc.ResolveMarker)
			if !ok || !u.hasCredit(p) {
				continue
			}
			u.rr = idx + 1
			u.wrrDebt++
			return u.grant(queueHandle{q, idx}, nil, p)
		}
		return nil
	}
	// Round-robin over the non-empty queues. The list can shrink while
	// scanning; every iteration either removes an entry or advances
	// `tried`, so the loop terminates.
	tried := 0
	for u.active.len() > 0 && tried < u.active.len() {
		idx := u.active.at(u.rr % u.active.len())
		q := u.qs.at(idx)
		p, ok := peelHead(q, nil)
		if !ok {
			u.active.remove(idx)
			continue
		}
		if !u.hasCredit(p) {
			u.rr++
			tried++
			continue
		}
		u.rr++
		return u.grant(queueHandle{q, idx}, nil, p)
	}
	return nil
}

func (u *egressUnit) pickSAQ(boostedOnly bool) *txOrigin {
	if u.rc.ActiveSAQs() == 0 {
		return nil
	}
	saqs := u.saqScratch[:0]
	u.rc.ForEachSAQ(func(s *recn.SAQ) { saqs = append(saqs, s) })
	u.saqScratch = saqs[:0]
	n := len(saqs)
	for i := 0; i < n; i++ {
		s := saqs[(u.saqRR+i)%n]
		// Peel markers first (allowed even while the SAQ is blocked —
		// popping a marker is a control-RAM operation, not a packet
		// transmission).
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
		if !u.hasCredit(p) {
			continue
		}
		u.saqRR = (u.saqRR + i + 1) % n
		u.wrrDebt = 0
		return u.grant(queueHandle{s.Q, -1}, s, p)
	}
	return nil
}

func (u *egressUnit) grant(h queueHandle, s *recn.SAQ, p *pkt.Packet) *txOrigin {
	if u.net.check != nil && s != nil && !u.rc.EligibleTx(s) {
		u.net.check.Fatalf(check.RuleXoffTransmit, u.loc(),
			"SAQ %v granted the link while stopped", s.Path)
	}
	h.q.Pop()
	if h.idx >= 0 && h.q.Entries() == 0 {
		u.active.remove(h.idx)
	}
	u.consumeCredit(p)
	if u.sw != nil && u.net.q.side == sideECN {
		u.sc.markECN(p, u.pool.Used(), u.loc())
	}
	o := u.sc.allocOrigin()
	o.p, o.q, o.saq, o.bytes = p, h, s, p.Size
	return o
}

// txDone implements dataSource: the packet has fully left the RAM.
func (u *egressUnit) txDone(o *txOrigin) {
	o.q.q.ReleaseResident(o.bytes)
	if u.rc != nil {
		u.rc.OnDrained(o.saq)
	}
	if u.sw != nil && u.net.q.side == sideSteer {
		u.updateHint()
	}
	if u.sw != nil {
		// Output buffer space freed: inputs blocked on it may proceed.
		u.sw.kickAllInputs()
	} else {
		u.nic.pump()
	}
}

// --- recn.EgressEffects ---

// NotifyIngress delivers an internal congestion notification to input
// port `ingress` of the same switch (instantaneous: intra-switch
// signaling is far below link-serialization timescales).
func (u *egressUnit) NotifyIngress(ingress int, path pkt.Path) bool {
	if u.sw == nil {
		u.net.fatalf(check.RuleInternal, u.loc(), "NIC injection port notified an ingress")
	}
	in := u.sw.in[ingress]
	if in == nil || in.rc == nil {
		return false
	}
	ok := in.rc.OnNotifyLocal(path)
	if u.sc.rec != nil {
		// Recorded at the receiving ingress: the path is anchored at
		// this switch, which is what the root resolver expects.
		accepted := int64(0)
		if ok {
			accepted = 1
		}
		u.sc.rec.Record(trace.EvNotify, in.loc(), path.Key(), 1, accepted, 0)
	}
	if ok {
		// A marker was placed in the ingress normal queue; ensure the
		// arbiter runs so it can be peeled even if no further packets
		// arrive at that port.
		in.kick()
		u.sc.arm(drvSweep)
	}
	return ok
}

// SendTokenDownstream forwards a token over the link (paper §3.5).
func (u *egressUnit) SendTokenDownstream(path pkt.Path, refused bool) {
	if u.sc.rec != nil {
		ref := int64(0)
		if refused {
			ref = 1
		}
		u.sc.rec.Record(trace.EvToken, u.loc(), path.Key(), ref, 0, 0)
	}
	u.ch.pushCtl(recn.CtlMsg{Kind: recn.MsgToken, Path: path, Refused: refused})
}

// SAQsChanged keeps the owning shard context's SAQ census (NIC
// injection ports count as egress).
func (u *egressUnit) SAQsChanged(from, to int) { u.sc.saqs.out.move(from, to) }

var _ recn.EgressEffects = (*egressUnit)(nil)
var _ recn.SAQCounter = (*egressUnit)(nil)
var _ dataSource = (*egressUnit)(nil)
