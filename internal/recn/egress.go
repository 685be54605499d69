package recn

import (
	"fmt"

	"repro/internal/mempool"
	"repro/internal/pkt"
)

// EgressEffects is implemented by the fabric to carry an egress
// controller's outputs to the rest of the system.
type EgressEffects interface {
	// NotifyIngress delivers an internal congestion notification (with
	// a token) to input port `ingress` of the same switch. It returns
	// whether the token was accepted (a SAQ was allocated there); on
	// refusal the token comes back immediately (paper §3.8).
	NotifyIngress(ingress int, path pkt.Path) bool
	// SendTokenDownstream sends a token over this port's link to the
	// downstream ingress port (deallocation, or refusal when refused
	// is set — paper §3.5, §3.8).
	SendTokenDownstream(path pkt.Path, refused bool)
}

// Egress is the RECN controller of an output port (or NIC injection
// port). See the package comment for the role split.
type Egress struct {
	table
	// terminal: a NIC injection port — congestion is never propagated
	// further (the "upstream" is the traffic source itself).
	terminal bool

	// Root state: this port's normal queue is the root of a
	// congestion tree. rootNotified dedups recruiting per input port;
	// rootBranch tracks which inputs actually hold a token (refusals
	// set the first but not the second). Tracking identities (as port
	// bitmasks) rather than a counter keeps tokens from different
	// episodes from corrupting the accounting.
	root         bool
	rootNotified uint64
	rootBranch   uint64

	fx EgressEffects
}

// NewEgress builds the controller for one output port with its CAM
// table in place, panicking on bad arguments (the constructor the tests
// and micro-benchmarks use).
//
// port is the output port index within the switch (prepended to paths
// when notifying local ingress ports). pool and normal are the port's
// data RAM and its queue for uncongested flows. terminal marks NIC
// injection ports.
func NewEgress(cfg Config, port int, pool *mempool.Pool, normals []*mempool.Queue, terminal bool, fx EgressEffects) *Egress {
	e := &Egress{}
	if err := e.Init(cfg, port, pool, normals, terminal, fx); err != nil {
		panic(err)
	}
	e.ensure()
	return e
}

// Init (re)builds the controller in place (arena-allocated controllers
// use this — see fabric.New); see newTable for what is deferred.
func (e *Egress) Init(cfg Config, port int, pool *mempool.Pool, normals []*mempool.Queue, terminal bool, fx EgressEffects) error {
	t, err := newTable("egress", cfg, port, pool, normals, fx)
	if err != nil {
		return err
	}
	*e = Egress{table: t, terminal: terminal, fx: fx}
	return nil
}

// GatedInternally reports whether packets matching this classification
// must be held at the ingress side (internal Xoff, paper §3.7): the
// target SAQ's occupancy crossed the stop threshold.
func (e *Egress) GatedInternally(route pkt.Route, hop int) bool {
	s := e.Classify(route, hop)
	return s != nil && s.gateInternal
}

// OnStored is called by the fabric after a packet of the given size
// from local input port `ingress` has been pushed into queue s (nil =
// normal queue). It runs congestion detection and notification
// propagation.
func (e *Egress) OnStored(s *SAQ, ingress int, size int) {
	if s == nil {
		e.detectRoot(ingress)
		return
	}
	s.used = true
	// Internal stop toward the switch's ingress ports.
	if !s.gateInternal && s.Q.QueuedBytes() >= e.cfg.XoffBytes {
		s.gateInternal = true
	}
	// Propagate the tree to the input ports feeding this SAQ.
	if s.Q.QueuedBytes() >= e.cfg.PropagateBytes {
		e.notifyIngress(s, ingress)
	}
}

// detectRoot handles congestion detection on the normal queue
// (paper §3.3): the port becomes the root of a congestion tree and
// notifies each input port the first time it sends a packet here while
// congested.
func (e *Egress) detectRoot(ingress int) {
	if e.terminal {
		return // injection ports cannot be roots
	}
	occ := e.normalBytes()
	if !e.root {
		if occ < e.cfg.DetectBytes {
			return
		}
		e.root = true
	}
	// A lingering root (queue drained, waiting for branch tokens to
	// come home) must not recruit new senders: handing out fresh
	// tokens while old ones are still in flight keeps branches > 0
	// forever and the tree never collapses.
	if occ < e.cfg.DetectBytes {
		return
	}
	if ingress < 0 || e.rootNotified&portBit(ingress) != 0 {
		return
	}
	e.rootNotified |= portBit(ingress)
	e.stats.NotifySent++
	if e.fx.NotifyIngress(ingress, pkt.PathOf(pkt.Turn(e.port))) {
		e.rootBranch |= portBit(ingress)
	} else {
		e.stats.Refusals++
	}
}

// notifyIngress extends the congestion tree from SAQ s to local input
// port `ingress` (paper §3.4: the path is extended with the turn of the
// current switch).
func (e *Egress) notifyIngress(s *SAQ, ingress int) {
	if e.terminal || ingress < 0 || s.notified&portBit(ingress) != 0 {
		return
	}
	s.notified |= portBit(ingress)
	e.stats.NotifySent++
	if e.fx.NotifyIngress(ingress, s.Path.Prepend(pkt.Turn(e.port))) {
		s.branchOut |= portBit(ingress)
		s.leaf = false
	} else {
		e.stats.Refusals++
	}
}

// OnUpstreamNotification handles a MsgNotify arriving over the link
// from the downstream ingress port: allocate a SAQ (and CAM line) for
// the path, placing an in-order marker in the normal queue. On refusal
// the token immediately returns downstream (paper §3.4, §3.8).
func (e *Egress) OnUpstreamNotification(path pkt.Path) {
	if _, ok := e.allocate(path, e.fx); !ok {
		e.sendToken(path, true)
	}
}

// ResolveMarker is called by the fabric when an in-order marker reaches
// the head of a queue: once all its markers resolved, the named SAQ may
// start transmitting. Stale markers (whose SAQ is gone) are inert.
// Queues that only held markers may now be idle, so deallocation is
// re-checked everywhere.
func (e *Egress) ResolveMarker(uid int) {
	e.resolveMarker(uid)
	// CAM-line order, not map order: deallocations send tokens, and
	// their relative order must be identical across runs.
	e.ForEachSAQ(e.maybeDealloc)
}

// OnTokenFromIngress is called (synchronously, same switch) when local
// input port `ingress` deallocates the SAQ for path e.port+rest: the
// branch token returns. rest is the path seen from this egress port
// (empty = this port's root).
func (e *Egress) OnTokenFromIngress(ingress int, rest pkt.Path) {
	if rest.Empty() {
		// Clearing the recruit flag lets the input be re-notified if
		// congestion persists; only tokens this root actually handed
		// out count toward collapse.
		e.rootNotified &^= portBit(ingress)
		if !e.root || e.rootBranch&portBit(ingress) == 0 {
			e.stats.StaleMsgs++
			return
		}
		e.rootBranch &^= portBit(ingress)
		e.maybeClearRoot()
		return
	}
	if e.cam == nil {
		// No SAQ was ever allocated here: the token is stale (same as an
		// empty-CAM lookup miss).
		e.stats.StaleMsgs++
		return
	}
	id, ok := e.cam.Lookup(rest)
	if !ok {
		e.stats.StaleMsgs++
		return
	}
	s := e.saqs[id]
	s.notified &^= portBit(ingress)
	if s.branchOut&portBit(ingress) == 0 {
		e.stats.StaleMsgs++
		return
	}
	s.branchOut &^= portBit(ingress)
	if s.branchOut == 0 {
		s.leaf = true
	}
	e.maybeDealloc(s)
}

// OnXoffFromDownstream / OnXonFromDownstream handle per-SAQ flow
// control from the downstream ingress SAQ (paper §3.7).
func (e *Egress) OnXoffFromDownstream(path pkt.Path) {
	if e.cam == nil {
		e.stats.StaleMsgs++
		return
	}
	if id, ok := e.cam.Lookup(path); ok {
		e.saqs[id].xoffRemote = true
	} else {
		e.stats.StaleMsgs++
	}
}

// OnXonFromDownstream resumes the SAQ stopped by OnXoffFromDownstream.
func (e *Egress) OnXonFromDownstream(path pkt.Path) {
	if e.cam == nil {
		e.stats.StaleMsgs++
		return
	}
	if id, ok := e.cam.Lookup(path); ok {
		e.saqs[id].xoffRemote = false
	} else {
		e.stats.StaleMsgs++
	}
}

// EligibleTx reports whether the link arbiter may serve this SAQ.
func (e *Egress) EligibleTx(s *SAQ) bool {
	return !s.Blocked() && !s.xoffRemote
}

// Boosted reports whether the SAQ gets highest arbitration priority: it
// owns a token and holds only a few packets, so draining it lets the
// tree collapse (paper §3.8).
func (e *Egress) Boosted(s *SAQ) bool {
	return s.leaf && s.branchOut == 0 && s.Q.Packets() <= e.cfg.BoostPackets && s.Q.Packets() > 0
}

// OnDrained is called by the fabric after a packet previously stored in
// SAQ s (nil = normal queue) has fully left the port and its RAM was
// released.
func (e *Egress) OnDrained(s *SAQ) {
	if s == nil {
		e.maybeClearRoot()
		return
	}
	if s.gateInternal && s.Q.QueuedBytes() <= e.cfg.XonBytes {
		s.gateInternal = false
	}
	e.maybeDealloc(s)
}

func (e *Egress) maybeClearRoot() {
	if e.root && e.rootBranch == 0 && e.normalBytes() < e.cfg.DetectBytes {
		e.root = false
		e.rootNotified = 0
	}
}

// maybeDealloc releases SAQ s once it is an idle leaf with no
// outstanding branches, sending the token downstream (paper §3.5). The
// SAQ must have been used: a freshly allocated SAQ whose packets are
// still in flight toward it must not bounce (alloc/dealloc thrash).
func (e *Egress) maybeDealloc(s *SAQ) {
	if !s.used || !s.leaf || s.branchOut != 0 || !s.Q.Idle() {
		return
	}
	e.dealloc(s)
}

// SweepIdle deallocates idle leaf SAQs regardless of use. The fabric
// calls it periodically so SAQs allocated for congestion that subsided
// before any packet arrived still return their tokens and let the tree
// collapse.
func (e *Egress) SweepIdle() {
	// CAM-line order, not map order: deallocations send tokens, and
	// their relative order must be identical across runs.
	e.ForEachSAQ(func(s *SAQ) {
		if s.leaf && s.branchOut == 0 && s.Q.Idle() {
			e.dealloc(s)
		}
	})
}

func (e *Egress) dealloc(s *SAQ) {
	e.release(s, e.fx)
	e.sendToken(s.Path, false)
}

// sendToken returns a token downstream. NIC injection ports send it
// too: their downstream is the first switch's ingress, whose SAQ is
// waiting to become a leaf again.
func (e *Egress) sendToken(path pkt.Path, refused bool) {
	e.stats.TokensSent++
	e.fx.SendTokenDownstream(path, refused)
}

// OnDenied is called by the crossbar arbiter when a packet from local
// input `ingress` could not be forwarded into this port because its
// target queue is congested (a root's full queue, or an internally
// Xoff-gated SAQ). The paper notifies inputs "the first time they send
// a packet to the congested output port"; a sender blocked by that very
// congestion must be notified too, or it would suffer permanent HOL
// blocking without ever joining the tree.
func (e *Egress) OnDenied(route pkt.Route, hop int, ingress int) {
	if e.terminal || ingress < 0 {
		return
	}
	if s := e.Classify(route, hop); s != nil {
		if s.Q.QueuedBytes() >= e.cfg.PropagateBytes {
			e.notifyIngress(s, ingress)
		}
		return
	}
	e.detectRoot(ingress)
}

// normalBytes sums the occupancy of the queues for uncongested flows
// (congestion detection looks at the port's aggregate backlog).
func (e *Egress) normalBytes() int {
	sum := 0
	for _, q := range e.normals {
		sum += q.QueuedBytes()
	}
	return sum
}

// AuditRemoteStops is the watchdog hook for lost Xons (paper §3.7
// assumes they always arrive): a remote stop held for `limit`
// consecutive audits is overridden so the SAQ can transmit again. If
// the downstream SAQ is genuinely still above threshold it re-asserts
// Xoff on the next arrival (or via its own resend timer); if the Xon
// was lost, this unfreezes the SAQ. Returns the number of stops
// cleared. Iterates in CAM line order for determinism.
func (e *Egress) AuditRemoteStops(limit int) int {
	cleared := 0
	for _, s := range e.saqs {
		if s == nil {
			continue
		}
		if !s.xoffRemote {
			s.watchTicks = 0
			continue
		}
		s.watchTicks++
		if s.watchTicks >= limit {
			s.xoffRemote = false
			s.watchTicks = 0
			cleared++
		}
	}
	return cleared
}

// Root reports whether this port is currently a congestion-tree root.
func (e *Egress) Root() bool { return e.root }

func (e *Egress) String() string {
	return fmt.Sprintf("egress{port %d, %d SAQs, root=%v}", e.port, e.ActiveSAQs(), e.root)
}
