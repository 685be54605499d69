package recn

import (
	"fmt"

	"repro/internal/cam"
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
	cfg  Config
	port int // this input port's index within its switch

	cam     *cam.Table
	pool    *mempool.Pool
	normals []*mempool.Queue // queues for uncongested flows (per class)
	// saqs is indexed by CAM line ID (nil = free line); with ≤8 lines,
	// slice indexing and linear UID scans beat maps and never allocate.
	saqs   []*SAQ
	active int
	// freed SAQs are recycled (with their queues) through a plain LIFO
	// free-list — deterministic, unlike sync.Pool.
	free   []*SAQ
	uidSeq int

	fx    IngressEffects
	tr    Tracer
	stats Stats
}

// SetTracer installs a flight-recorder tap (nil disables tracing).
func (in *Ingress) SetTracer(tr Tracer) { in.tr = tr }

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
// use this — see fabric.New). The CAM table and SAQ slot array are
// deferred to the first congestion event on this port: most ports of a
// large fabric never see one, and an absent CAM behaves exactly like an
// empty one.
func (in *Ingress) Init(cfg Config, port int, pool *mempool.Pool, normals []*mempool.Queue, fx IngressEffects) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if fx == nil {
		return fmt.Errorf("recn: ingress init with nil effects")
	}
	if len(normals) == 0 {
		return fmt.Errorf("recn: ingress init without normal queues")
	}
	*in = Ingress{
		cfg:     cfg,
		port:    port,
		pool:    pool,
		normals: normals,
		fx:      fx,
	}
	return nil
}

// ensure materializes the CAM table and SAQ slots on first use.
func (in *Ingress) ensure() {
	if in.cam == nil {
		in.cam = cam.New(in.cfg.MaxSAQs)
		in.saqs = make([]*SAQ, in.cfg.MaxSAQs)
	}
}

// takeSAQ recycles (or builds) a SAQ for CAM line id. The queue object
// is reused across allocations: deallocation requires an idle queue, so
// a recycled queue is always empty with no resident bytes.
func (in *Ingress) takeSAQ(id int, path pkt.Path) *SAQ {
	in.uidSeq++
	var s *SAQ
	if n := len(in.free); n > 0 {
		s = in.free[n-1]
		in.free[n-1] = nil
		in.free = in.free[:n-1]
		*s = SAQ{Q: s.Q}
	} else {
		s = &SAQ{Q: mempool.NewQueue(in.pool, 0)}
	}
	s.ID = id
	s.UID = in.uidSeq
	s.Path = path
	return s
}

// saqByUID finds a live SAQ by its unique ID (nil when gone — stale
// markers reference deallocated UIDs).
func (in *Ingress) saqByUID(uid int) *SAQ {
	for _, s := range in.saqs {
		if s != nil && s.UID == uid {
			return s
		}
	}
	return nil
}

// Classify returns the SAQ an arriving packet must be stored in, or
// nil for the normal queue. route[hop:] begins with the turn at this
// switch (paper §3.6).
func (in *Ingress) Classify(route pkt.Route, hop int) *SAQ {
	if in.cam == nil || in.cam.Used() == 0 {
		return nil
	}
	id, ok := in.cam.Match(route, hop)
	if in.tr != nil {
		in.tr.CAMLookup(ok)
	}
	if ok {
		return in.saqs[id]
	}
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
	in.ensure()
	if _, ok := in.cam.Lookup(path); ok {
		in.stats.Refusals++
		return false
	}
	id, ok := in.cam.Allocate(path)
	if !ok {
		in.stats.Refusals++
		return false
	}
	s := in.takeSAQ(id, path)
	s.leaf = true
	s.reArm = true
	in.saqs[id] = s
	in.active++
	if !in.cfg.NoInOrderMarkers {
		// In-order markers: the normal queue, plus every SAQ with a
		// proper prefix path (its packets may match the longer path).
		for _, q := range in.normals {
			q.PushMarker(s.UID)
			s.markersPending++
		}
		in.ForEachSAQ(func(t *SAQ) {
			if t != s && path.HasPrefix(t.Path) {
				t.Q.PushMarker(s.UID)
				s.markersPending++
			}
		})
	}
	in.stats.Allocs++
	in.stats.MarkersPlaced += uint64(s.markersPending)
	if in.tr != nil {
		in.tr.SAQAlloc(s.ID, s.UID, s.Path)
	}
	return true
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
	if s := in.saqByUID(uid); s != nil && s.markersPending > 0 {
		s.markersPending--
	}
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
	in.cam.Free(s.ID)
	in.saqs[s.ID] = nil
	in.active--
	in.stats.Deallocs++
	in.stats.TokensSent++
	if in.tr != nil {
		in.tr.SAQDealloc(s.ID, s.UID, s.Path)
	}
	egress, rest := int(s.Path.First()), s.Path.Rest()
	in.free = append(in.free, s)
	in.fx.TokenToEgress(egress, rest)
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

// Port returns this input port's index within its switch.
func (in *Ingress) Port() int { return in.port }

// ActiveSAQs returns the number of SAQs currently allocated.
func (in *Ingress) ActiveSAQs() int { return in.active }

// CAMUsed returns the number of CAM lines currently allocated. The
// invariant checker cross-checks it against ActiveSAQs and the
// allocation counters: a divergence means a leaked or double-freed
// line.
func (in *Ingress) CAMUsed() int {
	if in.cam == nil {
		return 0
	}
	return in.cam.Used()
}

// Materialized reports whether this controller ever saw a congestion
// event (its CAM and SAQ table exist). Used by the memory model: an
// unmaterialized controller holds no per-SAQ state at all.
func (in *Ingress) Materialized() bool { return in.cam != nil }

// SAQByID returns a SAQ by CAM line ID (nil when the line is free).
func (in *Ingress) SAQByID(id int) *SAQ {
	if id < 0 || id >= len(in.saqs) {
		return nil
	}
	return in.saqs[id]
}

// ForEachSAQ iterates over allocated SAQs in CAM line order.
func (in *Ingress) ForEachSAQ(fn func(s *SAQ)) {
	for _, s := range in.saqs {
		if s != nil {
			fn(s)
		}
	}
}

// Stats returns a copy of the event counters.
func (in *Ingress) Stats() Stats { return in.stats }

func (in *Ingress) String() string {
	return fmt.Sprintf("ingress{port %d, %d SAQs}", in.port, in.active)
}
