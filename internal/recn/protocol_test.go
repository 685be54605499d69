package recn

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mempool"
	"repro/internal/pkt"
)

// protocolHarness wires one egress controller to a set of real ingress
// controllers (one switch) plus a loopback "upstream" that accepts
// notifications for each ingress and reflects tokens/deallocations,
// modeling the rest of the tree as an eventually-collapsing black box.
type protocolHarness struct {
	t   *testing.T
	rng *rand.Rand

	eg       *Egress
	egNormal *mempool.Queue
	ins      []*Ingress
	inNormal []*mempool.Queue

	// upstream[i] = paths the ingress i notified upstream, waiting for
	// a token back.
	upstream [][]CtlMsg
}

// newProtocolHarness builds the switch with NewEgress/NewIngress (CAM
// tables in place), or, with lazy set, with Init alone (CAM tables
// deferred to the first congestion event, as fabric.New builds them).
func newProtocolHarness(t *testing.T, seed int64, inputs int, lazy bool) *protocolHarness {
	cfg := testConfig()
	h := &protocolHarness{t: t, rng: rand.New(rand.NewSource(seed))}
	h.ins = make([]*Ingress, inputs)
	h.inNormal = make([]*mempool.Queue, inputs)
	h.upstream = make([][]CtlMsg, inputs)
	efx := &egressFx{ingress: map[int]*Ingress{}}
	pool := mempool.NewPool(1 << 20)
	h.egNormal = mempool.NewQueue(pool, 0)
	if lazy {
		h.eg = &Egress{}
		if err := h.eg.Init(cfg, 6, pool, []*mempool.Queue{h.egNormal}, false, efx); err != nil {
			t.Fatal(err)
		}
	} else {
		h.eg = NewEgress(cfg, 6, pool, []*mempool.Queue{h.egNormal}, false, efx)
	}
	for i := range h.ins {
		i := i
		ipool := mempool.NewPool(1 << 20)
		h.inNormal[i] = mempool.NewQueue(ipool, 0)
		fx := &harnessIngressFx{h: h, port: i}
		if lazy {
			h.ins[i] = &Ingress{}
			if err := h.ins[i].Init(cfg, i, ipool, []*mempool.Queue{h.inNormal[i]}, fx); err != nil {
				t.Fatal(err)
			}
		} else {
			h.ins[i] = NewIngress(cfg, i, ipool, []*mempool.Queue{h.inNormal[i]}, fx)
		}
		efx.ingress[i] = h.ins[i]
	}
	return h
}

type harnessIngressFx struct {
	h    *protocolHarness
	port int
}

func (fx *harnessIngressFx) SendUpstream(m CtlMsg) {
	if m.Kind == MsgNotify {
		fx.h.upstream[fx.port] = append(fx.h.upstream[fx.port], m)
	}
	// Xon/Xoff are dropped: the black-box upstream has no flow to stop.
}

func (fx *harnessIngressFx) TokenToEgress(egress int, rest pkt.Path) {
	if egress != 6 {
		fx.h.t.Fatalf("token to unexpected port %d", egress)
	}
	fx.h.eg.OnTokenFromIngress(fx.port, rest)
}

// step performs one random legal action.
func (h *protocolHarness) step() {
	in := h.rng.Intn(len(h.ins))
	ig := h.ins[in]
	switch h.rng.Intn(10) {
	case 0, 1, 2: // a packet arrives at an ingress and is classified
		route := pkt.Route{6, pkt.Turn(h.rng.Intn(4)), pkt.Turn(h.rng.Intn(4))}
		if s := ig.Classify(route, 0); s != nil {
			s.Q.Push(64, nil)
			ig.OnStored(s, 64)
		} else {
			h.inNormal[in].Push(64, nil)
		}
	case 3, 4: // crossbar-like drain: ingress head moves to the egress
		h.drainIngress(in)
	case 5, 6: // egress drains to the link
		h.drainEgress()
	case 7: // upstream collapses one outstanding subtree (token home)
		if len(h.upstream[in]) > 0 {
			m := h.upstream[in][0]
			h.upstream[in] = h.upstream[in][1:]
			ig.OnTokenFromUpstream(m.Path, h.rng.Intn(4) == 0)
		}
	case 8: // marker peeling at a random queue
		h.peel(in)
	case 9: // periodic sweep
		ig.SweepIdle()
		h.eg.SweepIdle()
	}
}

func (h *protocolHarness) peel(in int) {
	q := h.inNormal[in]
	if e, ok := q.Head(); ok && e.IsMarker() {
		q.Pop()
		h.ins[in].ResolveMarker(e.MarkerSAQ())
	}
	if e, ok := h.egNormal.Head(); ok && e.IsMarker() {
		h.egNormal.Pop()
		h.eg.ResolveMarker(e.MarkerSAQ())
	}
	h.ins[in].ForEachSAQ(func(s *SAQ) {
		if e, ok := s.Q.Head(); ok && e.IsMarker() {
			s.Q.Pop()
			h.ins[in].ResolveMarker(e.MarkerSAQ())
		}
	})
	h.eg.ForEachSAQ(func(s *SAQ) {
		if e, ok := s.Q.Head(); ok && e.IsMarker() {
			s.Q.Pop()
			h.eg.ResolveMarker(e.MarkerSAQ())
		}
	})
}

// drainIngress pops one packet from some ingress queue and stores it at
// the egress (as the crossbar would).
func (h *protocolHarness) drainIngress(in int) {
	ig := h.ins[in]
	// Prefer a random SAQ, fall back to the normal queue.
	var fromSAQ *SAQ
	ig.ForEachSAQ(func(s *SAQ) {
		if fromSAQ == nil && !s.Blocked() && s.Q.Packets() > 0 {
			if e, ok := s.Q.Head(); ok && !e.IsMarker() {
				fromSAQ = s
			}
		}
	})
	var route pkt.Route
	if fromSAQ != nil {
		fromSAQ.Q.Pop()
		fromSAQ.Q.ReleaseResident(64)
		ig.OnDrained(fromSAQ)
		// A packet from this SAQ matches its full path, plus a turn
		// beyond the root.
		for i := 0; i < fromSAQ.Path.Len(); i++ {
			route = append(route, fromSAQ.Path.Turn(i))
		}
		route = append(route, 0)
	} else {
		e, ok := h.inNormal[in].Head()
		if !ok || e.IsMarker() {
			return
		}
		h.inNormal[in].Pop()
		h.inNormal[in].ReleaseResident(64)
		ig.OnDrained(nil)
		route = pkt.Route{6, pkt.Turn(h.rng.Intn(4)), pkt.Turn(h.rng.Intn(4))}
	}
	// Store at the egress, classified at hop 1 (past this switch).
	if s := h.eg.Classify(route, 1); s != nil {
		s.Q.Push(64, nil)
		h.eg.OnStored(s, in, 64)
	} else {
		h.egNormal.Push(64, nil)
		h.eg.OnStored(nil, in, 64)
	}
}

// drainEgress pops one packet from some egress queue (link TX).
func (h *protocolHarness) drainEgress() {
	var fromSAQ *SAQ
	h.eg.ForEachSAQ(func(s *SAQ) {
		if fromSAQ == nil && h.eg.EligibleTx(s) && s.Q.Packets() > 0 {
			if e, ok := s.Q.Head(); ok && !e.IsMarker() {
				fromSAQ = s
			}
		}
	})
	if fromSAQ != nil {
		fromSAQ.Q.Pop()
		fromSAQ.Q.ReleaseResident(64)
		h.eg.OnDrained(fromSAQ)
		return
	}
	e, ok := h.egNormal.Head()
	if !ok || e.IsMarker() {
		return
	}
	h.egNormal.Pop()
	h.egNormal.ReleaseResident(64)
	h.eg.OnDrained(nil)
}

// collapse drives the system until every SAQ is gone. Each round makes
// bounded progress (one drain attempt per queue, one reflected token
// per ingress, one marker peel pass); blocked SAQs unblock as markers
// surface over rounds, and token reflection that re-notifies converges
// once queues empty.
func (h *protocolHarness) collapse() {
	for round := 0; round < 200000; round++ {
		for in := range h.ins {
			h.peel(in)
			h.drainIngress(in)
			if len(h.upstream[in]) > 0 {
				m := h.upstream[in][0]
				h.upstream[in] = h.upstream[in][1:]
				h.ins[in].OnTokenFromUpstream(m.Path, false)
			}
			h.ins[in].SweepIdle()
		}
		h.drainEgress()
		h.eg.SweepIdle()
		total := h.eg.ActiveSAQs()
		pending := 0
		for in, ig := range h.ins {
			total += ig.ActiveSAQs()
			pending += len(h.upstream[in])
		}
		if total == 0 && pending == 0 && !h.eg.Root() {
			return
		}
	}
	h.t.Fatalf("protocol did not collapse: egress SAQs %d, root %v", h.eg.ActiveSAQs(), h.eg.Root())
}

// Random legal event sequences never panic the controllers, never leak
// tokens, and always let every congestion tree collapse once traffic
// stops.
func TestProtocolRandomizedCollapse(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		h := newProtocolHarness(t, seed, 4, false)
		steps := 500 + h.rng.Intn(1500)
		for i := 0; i < steps; i++ {
			h.step()
		}
		h.collapse()
		// After collapse, all stats are consistent: every allocation
		// was matched by a deallocation.
		st := h.eg.Stats()
		if st.Allocs != st.Deallocs {
			t.Fatalf("seed %d: egress allocs %d != deallocs %d", seed, st.Allocs, st.Deallocs)
		}
		for i, ig := range h.ins {
			st := ig.Stats()
			if st.Allocs != st.Deallocs {
				t.Fatalf("seed %d: ingress %d allocs %d != deallocs %d", seed, i, st.Allocs, st.Deallocs)
			}
		}
	}
}

// observe renders every observable of the harness's controllers: their
// counters, root state and CAM occupancy, each live SAQ (line, UID,
// path, gates, residency) in CAM-line order, the classification and
// internal gate of every two-turn route, and the control messages
// still in flight upstream.
func (h *protocolHarness) observe() string {
	var b strings.Builder
	saq := func(tag string, s *SAQ, eligible, boosted bool) {
		fmt.Fprintf(&b, " %s[%d uid=%d path=%v blocked=%v leaf=%v tx=%v boost=%v pkts=%d bytes=%d]",
			tag, s.ID, s.UID, s.Path, s.Blocked(), s.Leaf(), eligible, boosted, s.Q.Packets(), s.Q.QueuedBytes())
	}
	fmt.Fprintf(&b, "%v %+v cam=%d normal=%d", h.eg, h.eg.Stats(), h.eg.ActiveSAQs(), h.egNormal.QueuedBytes())
	h.eg.ForEachSAQ(func(s *SAQ) { saq("e", s, h.eg.EligibleTx(s), h.eg.Boosted(s)) })
	for a := 0; a < 4; a++ {
		for c := 0; c < 4; c++ {
			route := pkt.Route{6, pkt.Turn(a), pkt.Turn(c), 0}
			id := -1
			if s := h.eg.Classify(route, 1); s != nil {
				id = s.ID
			}
			fmt.Fprintf(&b, " c%d%d=%d/%v", a, c, id, h.eg.GatedInternally(route, 1))
		}
	}
	for i, ig := range h.ins {
		fmt.Fprintf(&b, "\n%v %+v cam=%d normal=%d up=%v", ig, ig.Stats(), ig.ActiveSAQs(),
			h.inNormal[i].QueuedBytes(), h.upstream[i])
		ig.ForEachSAQ(func(s *SAQ) { saq("i", s, ig.EligibleTx(s), ig.Boosted(s)) })
		for a := 0; a < 4; a++ {
			id := -1
			if s := ig.Classify(pkt.Route{6, pkt.Turn(a), 0}, 0); s != nil {
				id = s.ID
			}
			fmt.Fprintf(&b, " c%d=%d", a, id)
		}
	}
	return b.String()
}

// A controller built by Init defers its CAM table to the first
// congestion event; one built by NewIngress/NewEgress has it from the
// start. The two must be indistinguishable: driven through the same
// random op stream, every observable agrees after every step, through
// the collapse.
func TestLazyCAMMatchesEager(t *testing.T) {
	var egAllocs, inAllocs uint64
	for seed := int64(1); seed <= 20; seed++ {
		lazy, eager := newProtocolHarness(t, seed, 4, true), newProtocolHarness(t, seed, 4, false)
		if lazy.eg.Materialized() || !eager.eg.Materialized() {
			t.Fatalf("seed %d: CAM layouts not as built (lazy %v, eager %v)", seed, lazy.eg.Materialized(), eager.eg.Materialized())
		}
		steps := 500 + lazy.rng.Intn(1500)
		eager.rng.Intn(1500)
		// Now and then a downstream switch notifies the egress port,
		// so its CAM materializes too.
		down := rand.New(rand.NewSource(seed))
		for i := 0; i < steps; i++ {
			if down.Intn(50) == 0 {
				path := pkt.PathOf(pkt.Turn(down.Intn(4)))
				lazy.eg.OnUpstreamNotification(path)
				eager.eg.OnUpstreamNotification(path)
			}
			lazy.step()
			eager.step()
			if got, want := lazy.observe(), eager.observe(); got != want {
				t.Fatalf("seed %d step %d: lazy\n%s\neager\n%s", seed, i, got, want)
			}
		}
		lazy.collapse()
		eager.collapse()
		if got, want := lazy.observe(), eager.observe(); got != want {
			t.Fatalf("seed %d after collapse: lazy\n%s\neager\n%s", seed, got, want)
		}
		egAllocs += lazy.eg.Stats().Allocs
		for _, ig := range lazy.ins {
			inAllocs += ig.Stats().Allocs
		}
	}
	if egAllocs == 0 || inAllocs == 0 {
		t.Fatalf("SAQ allocations: egress %d, ingress %d — the op stream never reached a lazy CAM", egAllocs, inAllocs)
	}
}
