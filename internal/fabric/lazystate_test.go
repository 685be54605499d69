package fabric

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/mempool"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// A paged container must be observationally identical to the flat
// body of the same slots[T] under any operation sequence — that
// equivalence is what makes demand paging invisible to the goldens.
// Each test drives a paged and a flat instance with the same randomized
// VOQnet-shaped workload (indexes clustered the way traffic clusters on
// a few destinations) and compares every observable after every step;
// the flat instance is the reference.

const lazyTestN = 4 * statePageLen // several pages, some never touched

// clusteredIndex mimics VOQnet traffic: most touches land on a few hot
// destinations, a tail wanders the lower half of the index space (the
// upper-half pages stay untouched, so the tests can also assert the
// paging win, not just equivalence).
func clusteredIndex(rng *rand.Rand, n int) int {
	if rng.Intn(4) > 0 {
		return (n / 3) + rng.Intn(8) // hot cluster
	}
	return rng.Intn(n / 2)
}

func TestQueueSetLazyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	poolL := mempool.NewPool(1 << 20)
	poolD := mempool.NewPool(1 << 20)
	var lz, dn queueSet
	lz.init(poolL, lazyTestN, 4096, true)
	dn.init(poolD, lazyTestN, 4096, false)
	if lz.q.flat != nil || dn.q.flat == nil {
		t.Fatal("queueSet layouts not as requested")
	}
	for step := 0; step < 5000; step++ {
		i := clusteredIndex(rng, lazyTestN)
		switch rng.Intn(4) {
		case 0: // admission probe, must not materialize
			n := 64 + rng.Intn(512)
			if got, want := lz.canAccept(i, n), dn.canAccept(i, n); got != want {
				t.Fatalf("step %d: canAccept(%d, %d) = %v, dense %v", step, i, n, got, want)
			}
		case 1: // push through get (the only materializing op)
			n := 64 + rng.Intn(256)
			if lz.canAccept(i, n) {
				lz.get(i).Push(n, nil)
				dn.get(i).Push(n, nil)
			}
		case 2: // pop
			if q := lz.at(i); q != nil && !q.Empty() {
				e := q.Pop()
				q.ReleaseResident(e.Size)
				d := dn.get(i).Pop()
				dn.get(i).ReleaseResident(d.Size)
				if e.Size != d.Size {
					t.Fatalf("step %d: queue %d popped %d bytes, dense %d", step, i, e.Size, d.Size)
				}
			}
		case 3: // read-only residency probe
			if got, want := lz.queuedBytes(i), dn.queuedBytes(i); got != want {
				t.Fatalf("step %d: queuedBytes(%d) = %d, dense %d", step, i, got, want)
			}
		}
		if poolL.Used() != poolD.Used() {
			t.Fatalf("step %d: pool usage diverged: lazy %d, dense %d", step, poolL.Used(), poolD.Used())
		}
	}
	// Full sweep: every index agrees, and the lazy walk visits exactly
	// the non-empty subsequence of the dense walk in the same order.
	for i := 0; i < lazyTestN; i++ {
		if lz.queuedBytes(i) != dn.queuedBytes(i) {
			t.Fatalf("final: queuedBytes(%d) = %d, dense %d", i, lz.queuedBytes(i), dn.queuedBytes(i))
		}
	}
	var lazyOrder []int
	lz.forEach(func(i int, q *mempool.Queue) { lazyOrder = append(lazyOrder, i) })
	for j := 1; j < len(lazyOrder); j++ {
		if lazyOrder[j] <= lazyOrder[j-1] {
			t.Fatalf("lazy forEach out of index order: %v", lazyOrder)
		}
	}
	queues, _, ptrs := lz.memCount()
	if queues != len(lazyOrder) {
		t.Fatalf("memCount queues %d != materialized %d", queues, len(lazyOrder))
	}
	if ptrs >= lazyTestN {
		t.Fatalf("lazy set paid %d pointer slots for %d indexes (no paging win)", ptrs, lazyTestN)
	}
}

func TestCreditSetLazyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const start = 96
	var lz, dn creditSet
	lz.init(lazyTestN, start, true)
	dn.init(lazyTestN, start, false)
	for step := 0; step < 5000; step++ {
		i := clusteredIndex(rng, lazyTestN)
		switch rng.Intn(3) {
		case 0: // read, must not materialize
			if got, want := lz.value(i), dn.value(i); got != want {
				t.Fatalf("step %d: value(%d) = %d, dense %d", step, i, got, want)
			}
		case 1: // spend
			if *lz.slot(i) > 0 {
				*lz.slot(i)--
				*dn.slot(i)--
			}
		case 2: // replenish
			*lz.slot(i)++
			*dn.slot(i)++
		}
	}
	for i := 0; i < lazyTestN; i++ {
		if lz.value(i) != dn.value(i) {
			t.Fatalf("final: value(%d) = %d, dense %d", i, lz.value(i), dn.value(i))
		}
	}
	// Stable interior pointers: a slot taken before later
	// materializations still writes through.
	p := lz.slot(0)
	*lz.slot(lazyTestN - 1) = 7 // touch the last page
	*p = 42
	if lz.value(0) != 42 {
		t.Fatalf("slot pointer went stale after later materialization: value(0) = %d", lz.value(0))
	}
	if lz.memCount() >= lazyTestN {
		t.Fatalf("lazy credit set materialized %d slots of %d (no paging win)", lz.memCount(), lazyTestN)
	}
}

func TestActiveListLazyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := lazyPosThreshold + 3*statePageLen // big enough to actually go lazy
	var lz, dn activeList
	lz.init(n)
	dn.pos.init(n, false, 0) // the flat reference at the same size
	if lz.pos.flat != nil {
		t.Fatalf("activeList with n=%d did not switch to paged slots", n)
	}
	var small activeList
	if small.init(lazyPosThreshold - 1); small.pos.flat == nil {
		t.Fatalf("activeList with n=%d is paged, want flat", lazyPosThreshold-1)
	}
	for step := 0; step < 8000; step++ {
		i := clusteredIndex(rng, n)
		if rng.Intn(3) > 0 {
			lz.add(i)
			dn.add(i)
		} else {
			lz.remove(i)
			dn.remove(i)
		}
		if lz.len() != dn.len() {
			t.Fatalf("step %d: len %d, dense %d", step, lz.len(), dn.len())
		}
	}
	// Same members in the same iteration order (arbiter fairness
	// depends on the order, not just the set).
	for j := 0; j < lz.len(); j++ {
		if lz.at(j) != dn.at(j) {
			t.Fatalf("item %d: lazy %d, dense %d", j, lz.at(j), dn.at(j))
		}
	}
	if lz.memCount() >= dn.memCount() {
		t.Fatalf("lazy active list paid %d slots, dense pays %d (no paging win)", lz.memCount(), dn.memCount())
	}
}

func TestDestSetLazyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var lz, dn slots[nicDest]
	lz.init(lazyTestN, true, nicDest{})
	dn.init(lazyTestN, false, nicDest{})
	for step := 0; step < 5000; step++ {
		i := clusteredIndex(rng, lazyTestN)
		if rng.Intn(2) == 0 {
			lz.get(i, nicDest{}).bytes += 64
			dn.get(i, nicDest{}).bytes += 64
		}
		if got, want := lz.at(i, nicDest{}).bytes, dn.at(i, nicDest{}).bytes; got != want {
			t.Fatalf("step %d: dest %d bytes %d, dense %d", step, i, got, want)
		}
	}
	// Same materialized slots walk, in index order, as the flat walk
	// restricted to touched pages.
	var walked int
	lz.forEach(func(i int, d *nicDest) {
		if d.bytes != dn.at(i, nicDest{}).bytes {
			t.Fatalf("forEach: dest %d bytes %d, dense %d", i, d.bytes, dn.at(i, nicDest{}).bytes)
		}
		walked++
	})
	if want := (lz.memCount() - len(lz.pages)); walked != want {
		t.Fatalf("forEach visited %d slots, %d materialized", walked, want)
	}
	// Pointer stability across later materializations.
	p := lz.get(1, nicDest{})
	lz.get(lazyTestN-1, nicDest{}).bytes = 9
	p.bytes = 1234
	if lz.at(1, nicDest{}).bytes != 1234 {
		t.Fatalf("nicDest pointer went stale: bytes = %d", lz.at(1, nicDest{}).bytes)
	}
	if lz.memCount() >= lazyTestN {
		t.Fatalf("lazy dest set materialized %d slots of %d (no paging win)", lz.memCount(), lazyTestN)
	}
}

// touchAll materializes every slot of every paged set of a network —
// queue, credit, destination and active-list sets — through the same
// get/slot accessors the data path uses, leaving each slot at its
// initial value. A touched network holds exactly the state a flat
// layout would have built up front.
func touchAll(n *Network) {
	queues := func(qs *queueSet) {
		for i := 0; i < qs.len(); i++ {
			qs.get(i)
		}
	}
	active := func(a *activeList) {
		for i := 0; i < a.pos.n; i++ {
			a.pos.get(i, 0)
		}
	}
	credits := func(c *creditSet) {
		for i := 0; i < c.c.n; i++ {
			c.slot(i)
		}
	}
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in != nil {
				queues(&in.qs)
				active(&in.active)
			}
		}
		for _, out := range sw.out {
			if out != nil {
				queues(&out.qs)
				active(&out.active)
				credits(&out.queueCredits)
			}
		}
	}
	for _, nic := range n.nics {
		queues(&nic.inj.qs)
		active(&nic.inj.active)
		credits(&nic.inj.queueCredits)
		active(&nic.active)
		for i := 0; i < nic.dests.n; i++ {
			nic.dests.get(i, nicDest{})
		}
	}
}

// Paging is invisible end to end: a network whose paged sets were all
// materialized before the first event must dispatch exactly the events
// of an untouched one. On the policy with the most paged state (VOQnet)
// and on RECN (lazy CAM controllers), over the MIN and the fat tree,
// a checked, fully drained corner-case-2 run is compared on its
// all-pairs dispatch digest and its executed, injected and delivered
// counts.
func TestPreTouchedStateRunIdentity(t *testing.T) {
	type outcome struct {
		digest                        uint64
		executed, injected, delivered uint64
	}
	run := func(t *testing.T, topo Topology, p Policy, touch bool) outcome {
		t.Helper()
		c, err := traffic.Corner(2, 64, 64, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(topo)
		cfg.Policy = p
		attachChecker(t, &cfg)
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if touch {
			touchAll(n)
		}
		h := fnv.New64a()
		var buf [16]byte
		n.Engine.SetDispatchProbe(func(at sim.Time, seq uint64) {
			binary.LittleEndian.PutUint64(buf[:8], uint64(at))
			binary.LittleEndian.PutUint64(buf[8:], seq)
			h.Write(buf[:])
		})
		if err := c.Install(n.Traffic()); err != nil {
			t.Fatal(err)
		}
		n.Engine.Run(c.SimEnd)
		n.Engine.Drain()
		if err := n.InjectErr(); err != nil {
			t.Fatal(err)
		}
		if err := n.FinalCheck(); err != nil {
			t.Fatalf("touched=%v: %v", touch, err)
		}
		return outcome{h.Sum64(), n.Engine.Executed, n.InjectedPackets, n.DeliveredPackets}
	}
	topos := []struct {
		name  string
		build func() (Topology, error)
	}{
		{"min", func() (Topology, error) { return topology.ForHosts(64) }},
		{"fattree", func() (Topology, error) { return topology.NewFatTree(64) }},
	}
	for _, tp := range topos {
		for _, p := range []Policy{PolicyVOQnet, PolicyRECN} {
			t.Run(tp.name+"/"+p.String(), func(t *testing.T) {
				topo, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				untouched, touched := run(t, topo, p, false), run(t, topo, p, true)
				if untouched.delivered == 0 {
					t.Fatal("nothing delivered")
				}
				if untouched != touched {
					t.Errorf("untouched %+v\npre-touched %+v", untouched, touched)
				}
			})
		}
	}
}
