package recn

import (
	"fmt"

	"repro/internal/cam"
	"repro/internal/mempool"
	"repro/internal/pkt"
)

// table is the SAQ state both controller roles share: the port's CAM,
// one SAQ per used CAM line, the SAQ free-list and the event counters.
// Ingress and Egress embed it and add their role's protocol on top.
type table struct {
	cfg  Config
	port int // this port's index within its switch

	cam  *cam.Table
	pool *mempool.Pool
	// normals are the queues for uncongested flows — one per traffic
	// class (paper footnote 1: "Several queues can be used for
	// non-congested flows, thus providing support for multiple traffic
	// classes").
	normals []*mempool.Queue
	// saqs is indexed by CAM line ID (nil = free line); with ≤8 lines,
	// slice indexing and linear UID scans beat maps and never allocate.
	saqs []*SAQ
	// freed SAQs are recycled (with their queues) through a plain LIFO
	// free-list — deterministic, unlike sync.Pool.
	free   []*SAQ
	uidSeq int

	tr    Tracer
	stats Stats
}

// newTable validates a controller's arguments (role names the side in
// errors). The CAM table and SAQ slot array are deferred to the first
// congestion event on the port: most ports of a large fabric never see
// one, and an absent CAM behaves exactly like an empty one.
func newTable(role string, cfg Config, port int, pool *mempool.Pool, normals []*mempool.Queue, fx any) (table, error) {
	if err := cfg.Validate(); err != nil {
		return table{}, err
	}
	if fx == nil {
		return table{}, fmt.Errorf("recn: %s init with nil effects", role)
	}
	if len(normals) == 0 {
		return table{}, fmt.Errorf("recn: %s init without normal queues", role)
	}
	return table{cfg: cfg, port: port, pool: pool, normals: normals}, nil
}

// SetTracer installs a flight-recorder tap (nil disables tracing).
func (t *table) SetTracer(tr Tracer) { t.tr = tr }

// ensure materializes the CAM table and SAQ slots on first use.
func (t *table) ensure() {
	if t.cam == nil {
		t.cam = cam.New(t.cfg.MaxSAQs)
		t.saqs = make([]*SAQ, t.cfg.MaxSAQs)
	}
}

// allocate gives path a CAM line and a leaf SAQ, placing its in-order
// markers, and reports the port's new SAQ count to fx (SAQCounter). It
// returns false, counting a refusal, when the path already has a line
// or the CAM is full.
func (t *table) allocate(path pkt.Path, fx any) (*SAQ, bool) {
	t.ensure()
	if _, ok := t.cam.Lookup(path); ok {
		t.stats.Refusals++
		return nil, false
	}
	id, ok := t.cam.Allocate(path)
	if !ok {
		t.stats.Refusals++
		return nil, false
	}
	// The SAQ (and its queue) is recycled when possible: deallocation
	// requires an idle queue, so a recycled queue is always empty with
	// no resident bytes.
	t.uidSeq++
	var s *SAQ
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		*s = SAQ{Q: s.Q}
	} else {
		s = &SAQ{Q: mempool.NewQueue(t.pool, 0)}
	}
	s.ID, s.UID, s.Path, s.leaf = id, t.uidSeq, path, true
	t.saqs[id] = s
	countSAQs(fx, t.cam.Used()-1, t.cam.Used())
	if !t.cfg.NoInOrderMarkers {
		// In-order markers: the normal queue, plus every SAQ with a
		// proper prefix path (its packets may match the longer path).
		for _, q := range t.normals {
			q.PushMarker(s.UID)
			s.markersPending++
		}
		t.ForEachSAQ(func(o *SAQ) {
			if o != s && path.HasPrefix(o.Path) {
				o.Q.PushMarker(s.UID)
				s.markersPending++
			}
		})
	}
	t.stats.Allocs++
	t.stats.MarkersPlaced += uint64(s.markersPending)
	if t.tr != nil {
		t.tr.SAQAlloc(s.ID, s.UID, s.Path)
	}
	return s, true
}

// release frees s's CAM line and recycles s, reporting the port's new
// SAQ count to fx. s stays readable until the next allocation.
func (t *table) release(s *SAQ, fx any) {
	t.cam.Free(s.ID)
	t.saqs[s.ID] = nil
	countSAQs(fx, t.cam.Used()+1, t.cam.Used())
	t.stats.Deallocs++
	if t.tr != nil {
		t.tr.SAQDealloc(s.ID, s.UID, s.Path)
	}
	t.free = append(t.free, s)
}

// countSAQs reports a port's live-SAQ count change to fx when fx keeps
// a census.
func countSAQs(fx any, from, to int) {
	if c, ok := fx.(SAQCounter); ok {
		c.SAQsChanged(from, to)
	}
}

// saqByUID finds a live SAQ by its unique ID (nil when gone — stale
// markers reference deallocated UIDs).
func (t *table) saqByUID(uid int) *SAQ {
	for _, s := range t.saqs {
		if s != nil && s.UID == uid {
			return s
		}
	}
	return nil
}

// resolveMarker counts down the in-order markers of the SAQ a marker
// at the head of a queue names. Stale markers are inert.
func (t *table) resolveMarker(uid int) {
	if s := t.saqByUID(uid); s != nil && s.markersPending > 0 {
		s.markersPending--
	}
}

// Classify returns the SAQ an arriving packet must be stored in, or
// nil for the normal queue (paper §3.6). route[hop:] is the rest of
// the path as this port's CAM paths are anchored: at an ingress it
// begins with the turn at this switch, at an egress (the packet
// already crossed the crossbar) with the turn at the next switch.
func (t *table) Classify(route pkt.Route, hop int) *SAQ {
	if t.cam == nil || t.cam.Used() == 0 {
		return nil
	}
	id, ok := t.cam.Match(route, hop)
	if t.tr != nil {
		t.tr.CAMLookup(ok)
	}
	if ok {
		return t.saqs[id]
	}
	return nil
}

// ActiveSAQs returns the number of SAQs currently allocated: one per
// used CAM line. The invariant checker cross-checks it against the
// allocation counters: a divergence means a leaked or double-freed
// line.
func (t *table) ActiveSAQs() int {
	if t.cam == nil {
		return 0
	}
	return t.cam.Used()
}

// Materialized reports whether this controller ever saw a congestion
// event (its CAM and SAQ table exist). Used by the memory model: an
// unmaterialized controller holds no per-SAQ state at all.
func (t *table) Materialized() bool { return t.cam != nil }

// SAQByID returns a SAQ by CAM line ID (nil when the line is free).
func (t *table) SAQByID(id int) *SAQ {
	if id < 0 || id >= len(t.saqs) {
		return nil
	}
	return t.saqs[id]
}

// ForEachSAQ iterates over allocated SAQs in CAM line order.
func (t *table) ForEachSAQ(fn func(s *SAQ)) {
	for _, s := range t.saqs {
		if s != nil {
			fn(s)
		}
	}
}

// Stats returns a copy of the event counters.
func (t *table) Stats() Stats { return t.stats }
