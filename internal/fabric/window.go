package fabric

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// This file implements the windowed (sharded) execution mode: the
// switches are partitioned into contiguous groups, each driven by its
// own event engine on its own goroutine, synchronized by conservative
// time windows. The link pipeline latency L is the lookahead: a message
// transmitted at time u arrives at u + serialization + L > u + L, so as
// long as no shard runs more than L past the earliest pending event,
// every cross-shard (and, for uniformity, same-shard) channel arrival
// can be delivered through a boundary mailbox at a barrier that
// strictly precedes its due time.
//
// Determinism and shard-count invariance rest on three rules:
//
//  1. Every channel arrival and every remote injection is mailboxed —
//     including same-shard ones — and carries a composite engine
//     sequence built ONLY from shard-count-invariant keys: the send
//     instant u, a priority bit (channel traffic before remote
//     injections), and a 17-bit key (wiring-order channel ID, or the
//     calling host plus its within-instant call rank). Two mailbox
//     events can never share (arrival, sequence): one channel's
//     serializer is sequential (distinct arrivals), distinct channels
//     differ in key, and one host's remote calls differ in rank.
//
//  2. Locally scheduled events carry (u, per-instant counter)
//     sequences and sort before same-(time, u) mailbox events. The
//     counter preserves the relative order of one unit's own calls;
//     events of different units at the same instant only interact
//     through the mailboxes, whose order rule (1) fixes.
//
//  3. Everything global — watchdog, idle sweep, metrics sampler,
//     invariant checker, link flaps — runs on the coordinator engine
//     at barriers, after all shards have reached the horizon, with
//     the worker goroutines parked. Shards request periodic drivers
//     by recording due times the barrier folds with min().
//
// Together these make the windowed schedule a fixed total order that
// does not depend on how many shards execute it: `-shards 1..N`
// produce bit-identical results (the sweep engine's `-j` guarantee).
// The windowed order intentionally differs from the legacy
// single-engine order (arrivals ride mailboxes instead of inline
// events), so legacy goldens are preserved by the legacy path, and
// windowed goldens are compared across shard counts.

// Composite mailbox index layout (the low 27 bits of the engine
// sequence): priority bit, 17-bit channel/host key, 9-bit
// within-instant rank. 17 key bits cover the channel count of a
// 4k-host fat tree (every switch port plus every NIC injection port
// gets a wiring-order ID).
const (
	mailRankBits = 9
	mailKeyBits  = 17
	mailPriShift = mailKeyBits + mailRankBits
	maxMailKeys  = 1 << mailKeyBits
	maxMailRank  = 1 << mailRankBits
)

type mailKind uint8

const (
	mailData mailKind = iota
	mailCtl
	mailFn
)

// mailMsg is one boundary-mailbox message sitting in a source shard's
// outbox between barriers.
type mailMsg struct {
	at  sim.Time // arrival time at the destination
	u   sim.Time // send instant (the sequence's time component)
	idx uint64   // composite index: pri | key | rank
	dst int32    // destination shard

	kind mailKind
	ch   *channel    // mailData/mailCtl
	p    *pkt.Packet // mailData
	item ctlItem     // mailCtl
	fn   func()      // mailFn
}

// mailRec carries a delivered mailbox message through the destination
// engine's heap. Pooled on the destination shard context.
type mailRec struct {
	sc   *shardCtx
	ch   *channel
	p    *pkt.Packet
	item ctlItem
	kind mailKind
	fn   func()
}

// remoteMark tracks one host's ScheduleRemote calls within the current
// instant, giving simultaneous calls an invariant rank.
type remoteMark struct {
	u    sim.Time
	rank uint32
}

// sendData mailboxes a data packet's arrival (windowed mode).
func (sc *shardCtx) sendData(ch *channel, p *pkt.Packet, at sim.Time) {
	ch.sentData++
	sc.outbox = append(sc.outbox, mailMsg{
		at: at, u: sc.eng.Now(), idx: uint64(ch.id) << mailRankBits,
		dst: ch.dstShard, kind: mailData, ch: ch, p: p,
	})
}

// sendCtl mailboxes a control message's arrival (windowed mode).
func (sc *shardCtx) sendCtl(ch *channel, item ctlItem, at sim.Time) {
	ch.sentCtl++
	sc.outbox = append(sc.outbox, mailMsg{
		at: at, u: sc.eng.Now(), idx: uint64(ch.id) << mailRankBits,
		dst: ch.dstShard, kind: mailCtl, ch: ch, item: item,
	})
}

// mailArriveEvent delivers one mailbox message on the destination
// shard's engine. The record recycles before the sink runs — the sink
// may synchronously trigger sends that need fresh records.
func mailArriveEvent(arg any) {
	m := arg.(*mailRec)
	sc, ch, kind := m.sc, m.ch, m.kind
	switch kind {
	case mailData:
		p := m.p
		sc.freeMail(m)
		ch.recvData++
		ch.sink.arriveData(p)
	case mailCtl:
		item := m.item
		sc.freeMail(m)
		ch.recvCtl++
		if item.kind == ctlCredit {
			ch.sink.arriveCredit(item.credit)
		} else {
			ch.sink.arriveCtl(item.recn)
		}
	default:
		fn := m.fn
		sc.freeMail(m)
		fn()
	}
}

// Shard partitions the network into k shard contexts with their own
// engines and starts the worker goroutines. Call it after New and
// before installing traffic or running; k is clamped to the switch
// count and the effective shard count is returned. Requirements:
//
//   - LinkLatency must be positive (it is the conservative lookahead);
//   - a fault plan must not script exact drops (DropNext consumes a
//     global transmission order no parallel schedule reproduces —
//     probabilistic rules, corruption and flaps all work, on
//     per-channel streams salted by the wiring-order channel ID);
//   - hosts and channels must fit the 17-bit mailbox key space.
//
// Note the windowed fault and corruption streams are per-channel and
// therefore differ from the legacy plan-wide streams (deterministically
// so, at every shard count).
func (n *Network) Shard(k int) (int, error) {
	if n.group != nil {
		return 0, fmt.Errorf("fabric: network already sharded")
	}
	if k < 1 {
		return 0, fmt.Errorf("fabric: shard count %d < 1", k)
	}
	if n.cfg.LinkLatency <= 0 {
		return 0, fmt.Errorf("fabric: windowed mode needs a positive link latency (the lookahead)")
	}
	if n.Engine.Now() != 0 || n.InjectedPackets != 0 {
		return 0, fmt.Errorf("fabric: Shard must be called before the simulation starts")
	}
	if n.faults != nil && n.faults.HasScriptedDrops() {
		return 0, fmt.Errorf("fabric: scripted drops (fault.Plan.DropNext) need the serial engine — they consume a global transmission order")
	}
	if len(n.nics) >= maxMailKeys {
		return 0, fmt.Errorf("fabric: %d hosts exceed the %d-host mailbox key space", len(n.nics), maxMailKeys)
	}
	if k > len(n.switches) {
		k = len(n.switches)
	}

	shards := make([]*shardCtx, k)
	engines := make([]*sim.Engine, k)
	for i := range shards {
		sc := &shardCtx{
			n:       n,
			id:      i,
			eng:     sim.NewShardEngine(),
			cnt:     &netCounters{},
			lastSeq: make(map[uint64]uint64),
			sharded: true,
		}
		if n.report != nil {
			sc.report = &stats.FaultReport{}
		}
		if n.rec != nil {
			// Private ring per shard (merged at the end); time-series
			// metrics stay on the coordinator's recorder.
			cfg := n.rec.Config()
			cfg.MetricsBin = 0
			rec := trace.New(cfg)
			if err := rec.Bind(sc.eng, n.resolveRoot); err != nil {
				return 0, err
			}
			sc.rec = rec
		}
		shards[i] = sc
		engines[i] = sc.eng
	}

	// Contiguous switch blocks: switch IDs are level-major, so a block
	// keeps whole stages (or stage fragments) together and most links
	// local to a shard or its neighbor.
	nSw := len(n.switches)
	shardOf := func(swID int) int { return swID * k / nSw }

	for id, sw := range n.switches {
		sc := shards[shardOf(id)]
		sw.sc = sc
		for _, in := range sw.in {
			if in != nil {
				in.sc = sc
			}
		}
		for _, out := range sw.out {
			if out != nil {
				out.sc = sc
			}
		}
	}
	n.hostShard = make([]int32, len(n.nics))
	n.remoteMark = make([]remoteMark, len(n.nics))
	for h, nic := range n.nics {
		s := shardOf(nic.attachSw)
		nic.sc = shards[s]
		nic.inj.sc = shards[s]
		n.hostShard[h] = int32(s)
	}

	// Channel IDs in deterministic wiring order: switch outputs first
	// (ID-major, port-minor), then NIC injection links.
	chID := int32(0)
	assign := func(ch *channel, owner *shardCtx, dstShard int) error {
		if int(chID) >= maxMailKeys {
			return fmt.Errorf("fabric: %d+ channels exceed the %d-channel mailbox key space", chID+1, maxMailKeys)
		}
		ch.sc = owner
		ch.id = chID
		ch.dstShard = int32(dstShard)
		if n.faults != nil {
			ch.fv = n.faults.View(int64(chID)+1, owner.report)
		}
		chID++
		return nil
	}
	for _, sw := range n.switches {
		for p, out := range sw.out {
			if out == nil {
				continue
			}
			end := n.topo.Peer(sw.id, p)
			var dst int
			if end.Kind == topology.KindHost {
				dst = int(n.hostShard[end.Host])
			} else {
				dst = shardOf(end.Switch)
			}
			if err := assign(out.ch, out.sc, dst); err != nil {
				return 0, err
			}
		}
	}
	for _, nic := range n.nics {
		if err := assign(nic.inj.ch, nic.sc, shardOf(nic.attachSw)); err != nil {
			return 0, err
		}
	}

	// Re-point the RECN controller taps at the per-shard rings.
	if n.rec != nil {
		n.forEachCtl(func(c saqCtl, loc trace.Loc, sc *shardCtx) { c.SetTracer(saqTap{sc.rec, loc}) })
	}

	n.shards = shards
	n.windowStep = n.cfg.LinkLatency
	n.group = sim.NewShardGroup(engines)
	return k, nil
}

// ShardCount returns the number of shards (0 in legacy mode).
func (n *Network) ShardCount() int { return len(n.shards) }

// HostShard returns the shard that simulates a host (0 in legacy mode).
func (n *Network) HostShard(host int) int {
	if n.hostShard == nil {
		return 0
	}
	return int(n.hostShard[host])
}

// ShardEngine returns shard i's event engine. Traffic generators must
// schedule each host's stream on that host's shard engine.
func (n *Network) ShardEngine(i int) *sim.Engine { return n.shards[i].eng }

// SetShardOnDeliver installs shard i's delivery observer (the windowed
// counterpart of Network.OnDeliver, which windowed units never read).
// The callback runs on the shard's worker goroutine; per-shard results
// are merged deterministically after the run.
func (n *Network) SetShardOnDeliver(i int, fn func(*pkt.Packet)) {
	n.shards[i].onDeliver = fn
}

// ScheduleRemote schedules fn on host's shard engine at time at,
// mailboxed from the calling host's stream (even when caller and host
// land on the same shard, so the delivered order is shard-count
// invariant). It must be called from caller's stream context, and at
// must exceed the call time by more than LinkLatency — below that the
// delivery is clamped to the next barrier, which is deterministic for
// a fixed shard count but not invariant across counts. Legacy mode
// falls back to a plain coordinator-engine Schedule.
func (n *Network) ScheduleRemote(caller, host int, at sim.Time, fn func()) {
	if n.shards == nil {
		n.Engine.Schedule(at, fn)
		return
	}
	sc := n.shards[n.hostShard[caller]]
	u := sc.eng.Now()
	m := &n.remoteMark[caller]
	if m.u != u {
		m.u, m.rank = u, 0
	}
	rank := m.rank
	m.rank++
	if rank >= maxMailRank {
		n.fatalf(check.RuleInternal, trace.NetLoc,
			"host %d made %d+ remote injections in one instant", caller, maxMailRank)
	}
	sc.outbox = append(sc.outbox, mailMsg{
		at: at, u: u,
		idx: 1<<mailPriShift | uint64(caller)<<mailRankBits | uint64(rank),
		dst: n.hostShard[host], kind: mailFn, fn: fn,
	})
}

// TotalEvents returns the events dispatched across the coordinator and
// every shard engine. It is invariant across shard counts (windowed
// mode), though not comparable to a legacy run's event count.
func (n *Network) TotalEvents() uint64 {
	t := n.Engine.Executed
	for _, sc := range n.shards {
		t += sc.eng.Executed
	}
	return t
}

// MergedTracer returns the flight recorder covering the whole run: the
// coordinator's recorder in legacy mode, the deterministic merge of the
// coordinator and per-shard rings in windowed mode. nil when tracing is
// disabled.
func (n *Network) MergedTracer() *trace.Recorder {
	if n.rec == nil || n.shards == nil {
		return n.rec
	}
	parts := make([]*trace.Recorder, 0, len(n.shards)+1)
	parts = append(parts, n.rec)
	for _, sc := range n.shards {
		parts = append(parts, sc.rec)
	}
	return trace.Merge(n.rec.Config(), parts...)
}

// windowHorizon picks the next barrier: the earliest of limit (when
// bounded), the next coordinator event, any pending outbox delivery,
// and the earliest shard event plus one lookahead window. The last
// term is what bounds concurrent execution — no shard can run more
// than LinkLatency past the earliest thing anyone might do — while
// letting idle gaps fast-forward in one step. Returns false when
// nothing bounds the horizon (an unbounded drain has finished).
func (n *Network) windowHorizon(limit sim.Time, bounded bool) (sim.Time, bool) {
	e, has := limit, bounded
	if t, ok := n.Engine.NextAt(); ok && (!has || t < e) {
		e, has = t, true
	}
	var sNext sim.Time
	sOk := false
	for _, sc := range n.shards {
		if t, ok := sc.eng.NextAt(); ok && (!sOk || t < sNext) {
			sNext, sOk = t, true
		}
		// Coordinator barrier work may have outboxed sends; their
		// arrivals bound the horizon directly (they must be scheduled
		// before any shard clock passes them).
		for i := range sc.outbox {
			if at := sc.outbox[i].at; !has || at < e {
				e, has = at, true
			}
		}
	}
	if sOk {
		if w := sNext + n.windowStep; !has || w < e {
			e, has = w, true
		}
	}
	return e, has
}

// flushMail drains every shard's outbox into the destination engines.
// Insertion order is irrelevant: the composite sequences are built from
// invariant keys and are unique per engine, so the heap order — and
// therefore the delivery order — is the same at any shard count.
func (n *Network) flushMail() {
	for _, src := range n.shards {
		for i := range src.outbox {
			m := &src.outbox[i]
			dst := n.shards[m.dst]
			at := m.at
			if now := dst.eng.Now(); at < now {
				// Only reachable via a ScheduleRemote below the lookahead
				// bound; deterministic for a fixed shard count.
				at = now
			}
			rec := dst.allocMail()
			rec.sc, rec.ch, rec.p, rec.item, rec.kind, rec.fn = dst, m.ch, m.p, m.item, m.kind, m.fn
			dst.eng.ScheduleExt(at, sim.ComposeSeq(m.u, m.idx), mailArriveEvent, rec)
			*m = mailMsg{}
		}
		src.outbox = src.outbox[:0]
	}
}

// aggregateCounters rebuilds the network-level counters as the sum of
// the per-shard counters. Barrier context only.
func (n *Network) aggregateCounters() {
	n.netCounters = netCounters{}
	for _, sc := range n.shards {
		n.netCounters.add(sc.cnt)
	}
}

// collectDues folds the shards' periodic-driver arm requests: the
// minimum due time over shards is exactly the legacy "arm at the first
// qualifying injection" time, independent of the partition.
func (n *Network) collectDues() {
	for id := range n.drivers {
		var due sim.Time
		for _, sc := range n.shards {
			if v := sc.due[id]; v != 0 && (due == 0 || v < due) {
				due = v
			}
			sc.due[id] = 0
		}
		if due != 0 {
			n.armAt(driverID(id), due)
		}
	}
}

// runWindows is the barrier loop: run all shards to the horizon
// concurrently, then — single-threaded, workers parked — deliver
// mailboxes, aggregate counters, arm periodic drivers and run the
// coordinator's events through the same horizon.
func (n *Network) runWindows(until sim.Time, drain bool) {
	if n.group == nil {
		panic("fabric: RunWindowed/DrainWindowed before Shard")
	}
	if n.windowsDone {
		panic("fabric: windowed run already finished")
	}
	for {
		e, ok := n.windowHorizon(until, !drain)
		if !ok {
			return
		}
		n.group.Step(e)
		n.flushMail()
		n.aggregateCounters()
		n.collectDues()
		n.Engine.Run(e)
		if !drain && e >= until {
			return
		}
	}
}

// RunWindowed advances the windowed simulation through `until`
// (inclusive, like sim.Engine.Run).
func (n *Network) RunWindowed(until sim.Time) { n.runWindows(until, false) }

// DrainWindowed runs until no work remains anywhere — shard heaps,
// outboxes and the coordinator queue are all empty — then finishes the
// run (see FinishWindowed).
func (n *Network) DrainWindowed() {
	n.runWindows(0, true)
	n.FinishWindowed()
}

// FinishWindowed ends a windowed run without draining: the per-shard
// fault reports fold into the network's and the worker goroutines are
// released. The network stays readable (counters, quiesce checks,
// MergedTracer) but cannot be stepped again. Figure runs that cut off
// at the horizon call this directly; drains go through DrainWindowed.
func (n *Network) FinishWindowed() {
	if n.windowsDone {
		return
	}
	n.windowsDone = true
	for _, sc := range n.shards {
		if n.report != nil {
			n.report.Merge(sc.report)
		}
	}
	n.group.Close()
}
