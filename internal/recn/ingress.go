package recn

import (
	"fmt"

	"repro/internal/mempool"
	"repro/internal/pkt"
)

// IngressEffects is implemented by the fabric to carry an ingress
// controller's outputs to the rest of the system.
type IngressEffects interface {
	// SendUpstream transmits a control message (notification, Xon or
	// Xoff) over the reverse link to the upstream egress port.
	SendUpstream(msg CtlMsg)
	// TokenToEgress delivers a branch token (synchronously, same
	// switch) to output port `egress`; rest is the path as seen from
	// that port (empty = it is the root).
	TokenToEgress(egress int, rest pkt.Path)
}

// Ingress is the RECN controller of a switch input port.
type Ingress struct {
	table
	fx IngressEffects
}

// NewIngress builds the controller for one input port with its CAM
// table in place, panicking on bad arguments (the constructor the tests
// and micro-benchmarks use).
func NewIngress(cfg Config, port int, pool *mempool.Pool, normals []*mempool.Queue, fx IngressEffects) *Ingress {
	in := &Ingress{}
	if err := in.Init(cfg, port, pool, normals, fx); err != nil {
		panic(err)
	}
	in.ensure()
	return in
}

// Init (re)builds the controller in place (arena-allocated controllers
// use this — see fabric.New); see newTable for what is deferred.
func (in *Ingress) Init(cfg Config, port int, pool *mempool.Pool, normals []*mempool.Queue, fx IngressEffects) error {
	t, err := newTable("ingress", cfg, port, pool, normals, fx)
	if err != nil {
		return err
	}
	*in = Ingress{table: t, fx: fx}
	return nil
}

// OnNotifyLocal handles an internal congestion notification from one of
// this switch's output ports. It returns whether the token was accepted
// (a SAQ was allocated); false lets the egress keep its branch count
// consistent (paper §3.8: "the token is returned to the notification
// sender").
func (in *Ingress) OnNotifyLocal(path pkt.Path) bool {
	if path.Empty() {
		panic("recn: internal notification with empty path")
	}
	s, ok := in.allocate(path, in.fx)
	if ok {
		s.reArm = true
	}
	return ok
}

// OnStored is called by the fabric after a packet of the given size has
// been pushed into queue s (nil = normal queue: nothing to do — roots
// are detected at output ports).
func (in *Ingress) OnStored(s *SAQ, size int) {
	if s == nil {
		return
	}
	s.used = true
	in.checkPressure(s)
}

// checkPressure propagates the congestion tree upstream when the SAQ
// crosses the notification threshold (paper §3.4; the path is reused
// verbatim — the upstream egress port sees the same path to the root),
// and sends the per-SAQ Xoff once a notification is out (paper §3.7).
func (in *Ingress) checkPressure(s *SAQ) {
	occ := s.Q.QueuedBytes()
	if occ >= in.cfg.PropagateBytes && !s.sentUpstream && s.reArm && s.leaf {
		s.sentUpstream = true
		s.leaf = false
		s.reArm = false
		in.stats.NotifySent++
		in.fx.SendUpstream(CtlMsg{Kind: MsgNotify, Path: s.Path})
	}
	if !s.xoffSent && s.sentUpstream && occ >= in.cfg.XoffBytes {
		s.xoffSent = true
		in.stats.XoffSent++
		in.fx.SendUpstream(CtlMsg{Kind: MsgXoff, Path: s.Path})
	}
}

// OnTokenFromUpstream handles a MsgToken arriving over the link: the
// subtree above this SAQ collapsed (or, with refused set, the
// notification bounced off a full CAM); the SAQ owns the token again
// and may deallocate once idle. After a deallocation token the SAQ
// re-notifies immediately if it is still over the threshold — the
// upstream SAQ drained and went away, but the flow feeding us has not
// stopped. After a refusal it backs off until it drains below the
// threshold once, avoiding notify/refuse storms.
func (in *Ingress) OnTokenFromUpstream(path pkt.Path, refused bool) {
	if in.cam == nil {
		// No SAQ was ever allocated here: the token is stale (same as an
		// empty-CAM lookup miss).
		in.stats.StaleMsgs++
		return
	}
	id, ok := in.cam.Lookup(path)
	if !ok {
		in.stats.StaleMsgs++
		return
	}
	s := in.saqs[id]
	if !s.sentUpstream {
		in.stats.StaleMsgs++
		return
	}
	s.sentUpstream = false
	s.leaf = true
	s.reArm = !refused
	if s.xoffSent {
		// The upstream SAQ is gone; clear our stop state.
		s.xoffSent = false
	}
	in.checkPressure(s)
	in.maybeDealloc(s)
}

// ResolveMarker is called when an in-order marker reaches the head of a
// queue. Stale markers are inert. Queues that only held markers may now
// be idle, so deallocation is re-checked everywhere.
func (in *Ingress) ResolveMarker(uid int) {
	in.resolveMarker(uid)
	// CAM-line order, not map order: deallocations send tokens, and
	// their relative order must be identical across runs.
	in.ForEachSAQ(in.maybeDealloc)
}

// EligibleTx reports whether the crossbar arbiter may serve this SAQ.
// (Internal Xoff is checked against the *target egress* by the fabric.)
func (in *Ingress) EligibleTx(s *SAQ) bool { return !s.Blocked() }

// Boosted reports whether the SAQ gets highest arbitration priority
// (paper §3.8).
func (in *Ingress) Boosted(s *SAQ) bool {
	return s.leaf && s.Q.Packets() <= in.cfg.BoostPackets && s.Q.Packets() > 0
}

// OnDrained is called after a packet from SAQ s (nil = normal queue)
// has fully left the port and its RAM was released.
func (in *Ingress) OnDrained(s *SAQ) {
	if s == nil {
		return
	}
	occ := s.Q.QueuedBytes()
	if s.xoffSent && occ <= in.cfg.XonBytes {
		s.xoffSent = false
		in.stats.XonSent++
		in.fx.SendUpstream(CtlMsg{Kind: MsgXon, Path: s.Path})
	}
	if !s.reArm && occ < in.cfg.PropagateBytes {
		s.reArm = true
	}
	in.maybeDealloc(s)
}

// maybeDealloc releases SAQ s once it is an idle leaf, handing the
// token to the local output port on its path (paper §3.5: "notifying
// the corresponding output port, which is identified thanks to the path
// information available in the CAM line").
// The SAQ must have been used: a freshly allocated SAQ whose packets
// are still in flight toward it must not bounce (alloc/dealloc thrash).
func (in *Ingress) maybeDealloc(s *SAQ) {
	if !s.used || !s.leaf || s.sentUpstream || !s.Q.Idle() {
		return
	}
	in.dealloc(s)
}

// SweepIdle deallocates idle leaf SAQs regardless of use (see
// Egress.SweepIdle).
func (in *Ingress) SweepIdle() {
	// CAM-line order, not map order: deallocations send tokens, and
	// their relative order must be identical across runs.
	in.ForEachSAQ(func(s *SAQ) {
		if s.leaf && !s.sentUpstream && s.Q.Idle() {
			in.dealloc(s)
		}
	})
}

func (in *Ingress) dealloc(s *SAQ) {
	in.release(s, in.fx)
	in.stats.TokensSent++
	in.fx.TokenToEgress(int(s.Path.First()), s.Path.Rest())
}

// AuditTokens is the watchdog hook for lost tokens and notifications
// (the paper assumes both always arrive, §3.5/§3.8). A SAQ that has
// been idle with its token outstanding for `limit` consecutive audits
// is force-reclaimed: the upstream subtree either never existed (the
// notification was dropped) or collapsed without us hearing (the token
// was dropped). Reclaiming early in a live tree is safe — a token that
// arrives later finds no CAM entry and is already tolerated as stale.
// Returns the number of SAQs reclaimed. Iterates in CAM line order for
// determinism.
func (in *Ingress) AuditTokens(limit int) int {
	reclaimed := 0
	for _, s := range in.saqs {
		if s == nil {
			continue
		}
		if s.sentUpstream && s.Q.Idle() {
			s.watchTicks++
			if s.watchTicks >= limit {
				in.forceReclaim(s)
				reclaimed++
			}
		} else {
			s.watchTicks = 0
		}
	}
	return reclaimed
}

// forceReclaim deallocates a SAQ without waiting for its token. If we
// had stopped the upstream SAQ, release it first — leaving a phantom
// Xoff in place would freeze the upstream queue forever.
func (in *Ingress) forceReclaim(s *SAQ) {
	if s.xoffSent {
		s.xoffSent = false
		in.stats.XonSent++
		in.fx.SendUpstream(CtlMsg{Kind: MsgXon, Path: s.Path})
	}
	s.sentUpstream = false
	s.leaf = true
	in.dealloc(s)
}

// ResendStops is the watchdog hook for lost Xoffs: re-send the stop for
// every SAQ that believes the upstream is stopped while still sitting
// above the threshold. A duplicate Xoff at a correctly stopped upstream
// is idempotent, so resending is always safe. Returns the number of
// Xoffs re-sent. Iterates in CAM line order for determinism.
func (in *Ingress) ResendStops() int {
	sent := 0
	for _, s := range in.saqs {
		if s == nil {
			continue
		}
		if s.xoffSent && s.Q.QueuedBytes() >= in.cfg.XoffBytes {
			in.stats.XoffSent++
			in.fx.SendUpstream(CtlMsg{Kind: MsgXoff, Path: s.Path})
			sent++
		}
	}
	return sent
}

func (in *Ingress) String() string {
	return fmt.Sprintf("ingress{port %d, %d SAQs}", in.port, in.ActiveSAQs())
}
