package fabric

import (
	"testing"

	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// newBareQueue returns a fresh pool-backed queue for channel tests.
func newBareQueue() *mempool.Queue {
	return mempool.NewQueue(mempool.NewPool(1<<20), 0)
}

// fakeSource feeds a channel a fixed packet list.
type fakeSource struct {
	queue []*txOrigin
	done  []*txOrigin
}

func (f *fakeSource) pickData() *txOrigin {
	if len(f.queue) == 0 {
		return nil
	}
	o := f.queue[0]
	f.queue = f.queue[1:]
	return o
}

func (f *fakeSource) txDone(o *txOrigin) { f.done = append(f.done, o) }

// fakeSink records arrivals with timestamps.
type fakeSink struct {
	eng     *sim.Engine
	data    []sim.Time
	credits []sim.Time
	ctl     []recn.CtlMsg
	ctlAt   []sim.Time
}

func (f *fakeSink) arriveData(p *pkt.Packet) { f.data = append(f.data, f.eng.Now()) }
func (f *fakeSink) arriveCredit(c creditMsg) { f.credits = append(f.credits, f.eng.Now()) }
func (f *fakeSink) arriveCtl(m recn.CtlMsg) {
	f.ctl = append(f.ctl, m)
	f.ctlAt = append(f.ctlAt, f.eng.Now())
}
func (f *fakeSink) auditResident(queue int) int    { return 0 }
func (f *fakeSink) reverseQuiet(now sim.Time) bool { return true }

func newTestChannel(t *testing.T) (*Network, *fakeSource, *fakeSink, *channel) {
	t.Helper()
	topo, _ := topology.ForHosts(64)
	cfg := DefaultConfig(topo)
	net := &Network{Engine: sim.NewEngine(), cfg: cfg, topo: topo}
	net.base = &shardCtx{n: net, id: -1, eng: net.Engine, cnt: &net.netCounters, lastSeq: make(map[uint64]uint64)}
	src := &fakeSource{}
	sink := &fakeSink{eng: net.Engine}
	ch := &channel{}
	ch.init(net.base, src, sink)
	return net, src, sink, ch
}

func TestChannelDataTiming(t *testing.T) {
	net, src, sink, ch := newTestChannel(t)
	p := &pkt.Packet{ID: 1, Size: 64, Route: pkt.Route{0}}
	mq := newTestQueueWithPacket(p)
	src.queue = []*txOrigin{{p: p, q: mq, bytes: 64}}
	ch.kick()
	net.Engine.Drain()
	// Serialization 64 ns at 8 Gbps + 20 ns fly time.
	if len(sink.data) != 1 || sink.data[0] != 84*sim.Nanosecond {
		t.Fatalf("data arrival at %v, want 84 ns", sink.data)
	}
	// txDone fires at the end of serialization (64 ns).
	if len(src.done) != 1 {
		t.Fatal("txDone not called")
	}
}

// newTestQueueWithPacket builds a queue handle holding one popped
// packet (resident) so txDone's ReleaseResident is valid.
func newTestQueueWithPacket(p *pkt.Packet) queueHandle {
	q := queueHandle{q: newBareQueue(), idx: 0}
	q.q.Push(p.Size, p)
	q.q.Pop()
	return q
}

func TestChannelControlPriority(t *testing.T) {
	net, src, sink, ch := newTestChannel(t)
	p := &pkt.Packet{ID: 1, Size: 512, Route: pkt.Route{0}}
	src.queue = []*txOrigin{{p: p, q: newTestQueueWithPacket(p), bytes: 512}}
	ch.pushCredit(64, -1)
	ch.pushCtl(recn.CtlMsg{Kind: recn.MsgNotify, Path: pkt.PathOf(4)})
	ch.kick()
	net.Engine.Drain()
	// Control goes first: credit (8 B → 8 ns), then notification
	// (16 B → 16 ns), then the data packet.
	if len(sink.credits) != 1 || sink.credits[0] != 28*sim.Nanosecond {
		t.Fatalf("credit at %v, want 28 ns", sink.credits)
	}
	if len(sink.ctl) != 1 || sink.ctlAt[0] != 44*sim.Nanosecond {
		t.Fatalf("ctl at %v, want 44 ns", sink.ctlAt)
	}
	if len(sink.data) != 1 || sink.data[0] != (8+16+512+20)*sim.Nanosecond {
		t.Fatalf("data at %v, want 556 ns", sink.data)
	}
}

func TestChannelSerializesBackToBack(t *testing.T) {
	net, src, sink, ch := newTestChannel(t)
	for i := 0; i < 3; i++ {
		p := &pkt.Packet{ID: uint64(i), Size: 64, Route: pkt.Route{0}}
		src.queue = append(src.queue, &txOrigin{p: p, q: newTestQueueWithPacket(p), bytes: 64})
	}
	ch.kick()
	net.Engine.Drain()
	if len(sink.data) != 3 {
		t.Fatalf("delivered %d", len(sink.data))
	}
	// Arrivals 64 ns apart (pipelined link at full rate).
	for i := 1; i < 3; i++ {
		if sink.data[i]-sink.data[i-1] != 64*sim.Nanosecond {
			t.Fatalf("arrival gap %v", sink.data[i]-sink.data[i-1])
		}
	}
}

func TestActiveList(t *testing.T) {
	var a activeList
	a.init(8)
	a.add(3)
	a.add(5)
	a.add(3) // duplicate is a no-op
	if a.len() != 2 {
		t.Fatalf("len %d", a.len())
	}
	a.remove(3)
	if a.len() != 1 || a.at(0) != 5 {
		t.Fatalf("after remove: %v", a.items)
	}
	a.remove(3) // absent is a no-op
	a.add(0)
	a.add(7)
	seen := map[int]bool{}
	for i := 0; i < a.len(); i++ {
		seen[a.at(i)] = true
	}
	if !seen[5] || !seen[0] || !seen[7] || len(seen) != 3 {
		t.Fatalf("membership: %v", a.items)
	}
}

func TestPeelHead(t *testing.T) {
	q := newBareQueue()
	var resolved []int
	resolve := func(uid int) { resolved = append(resolved, uid) }
	q.PushMarker(7)
	q.PushMarker(8)
	p := &pkt.Packet{ID: 1, Size: 64}
	q.Push(64, p)
	got, ok := peelHead(q, resolve)
	if !ok || got != p {
		t.Fatalf("peelHead = %v, %v", got, ok)
	}
	if len(resolved) != 2 || resolved[0] != 7 || resolved[1] != 8 {
		t.Fatalf("resolved: %v", resolved)
	}
	q.Pop()
	q.ReleaseResident(64)
	q.PushMarker(9)
	if _, ok := peelHead(q, resolve); ok {
		t.Fatal("peelHead found a packet in a marker-only queue")
	}
	if len(resolved) != 3 {
		t.Fatalf("trailing marker not resolved: %v", resolved)
	}
}
