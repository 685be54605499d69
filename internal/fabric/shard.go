package fabric

import (
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// This file defines the per-shard execution context. The fabric runs in
// one of two modes:
//
//   - Legacy (the default): one engine drives the whole network. Every
//     unit's shard context is Network.base, which aliases the global
//     engine, recorder, counters and pools — the call sequences (and
//     therefore the dispatch-order goldens) are bit-identical to the
//     pre-shard code.
//
//   - Windowed (after Network.Shard): the switches are partitioned into
//     contiguous groups, each with its own event engine, free-lists,
//     counters and flight-recorder ring. Shards run concurrently inside
//     one link-latency window and exchange all channel traffic through
//     deterministic boundary mailboxes (see window.go).
//
// Every switch (with its ingress/egress units), every NIC (with its
// injection port) and every channel holds an sc pointer to the context
// that owns it. Unit code never touches another shard's context: all
// cross-unit interaction rides on channels, and in windowed mode those
// are mailboxed — including same-shard links, so the delivered order at
// any port is decided by shard-count-invariant keys only.

// netCounters is the aggregate packet accounting. The Network embeds it
// (the public counter fields); each windowed shard keeps a private copy
// that the barrier sums into the Network's.
type netCounters struct {
	InjectedPackets  uint64
	InjectedBytes    uint64
	DeliveredPackets uint64
	DeliveredBytes   uint64
	OrderViolations  uint64
	// DroppedMessages counts messages discarded at hosts because the
	// admittance queue for their destination was full (AdmitCap).
	// These never enter the network — the fabric itself is lossless.
	DroppedMessages uint64
}

func (c *netCounters) add(o *netCounters) {
	c.InjectedPackets += o.InjectedPackets
	c.InjectedBytes += o.InjectedBytes
	c.DeliveredPackets += o.DeliveredPackets
	c.DeliveredBytes += o.DeliveredBytes
	c.OrderViolations += o.OrderViolations
	c.DroppedMessages += o.DroppedMessages
}

// shardCtx is the execution context of one shard (or, in legacy mode,
// of the whole network). It owns everything the hot path mutates:
// engine, free-lists, packet pool, counters, sequence state and the
// flight-recorder ring — so two shards never write the same word
// between barriers.
type shardCtx struct {
	n   *Network
	id  int // -1 for the legacy/base context
	eng *sim.Engine
	// rec is where this shard's units record trace events: the global
	// recorder in legacy mode, a private ring in windowed mode (merged
	// deterministically at end of run).
	rec *trace.Recorder
	// cnt is where injection/delivery accounting goes: &Network.netCounters
	// in legacy mode, &localCnt in windowed mode.
	cnt *netCounters
	// report receives delivery-side fault accounting (CorruptedDelivered)
	// and the per-channel fault-view counters in windowed mode.
	report *stats.FaultReport

	// Free-lists (see pools.go) and the packet pool. In windowed mode
	// packets allocate on the source NIC's shard and free on the
	// destination's — the pools exchange fungible records, never live
	// state.
	pktPool pkt.Pool
	origins []*txOrigin
	ctlEvs  []*ctlEv
	xfers   []*xferRec
	mails   []*mailRec

	pktSeq    uint64
	lastSeq   map[uint64]uint64 // (src,dst,class) → last delivered seq
	liveXfers int
	// onDeliver is the per-shard delivery observer in windowed mode
	// (legacy mode reads Network.OnDeliver at call time instead, so
	// observers installed after New keep working).
	onDeliver func(*pkt.Packet)

	sharded bool
	// outbox accumulates everything sent across (or within) shards
	// during a window: channel payload/control arrivals and remote
	// traffic-stream injections. Drained at barriers in deterministic
	// order (see window.go).
	outbox []mailMsg

	// due holds the periodic-driver arm requests recorded during a
	// window (0 = none), folded by collectDues at the next barrier.
	due [numDrivers]sim.Time
}

// deliver is called by a NIC when a packet fully arrives at its host.
// The packet returns to the pool when deliver returns: OnDeliver
// observers must copy what they need, never retain p.
func (sc *shardCtx) deliver(p *pkt.Packet) {
	sc.cnt.DeliveredPackets++
	sc.cnt.DeliveredBytes += uint64(p.Size)
	if p.Corrupted {
		// Corrupted is only ever set by a bound fault plan, so the
		// report exists.
		sc.report.CorruptedDelivered++
	}
	key := uint64(p.Src)<<40 | uint64(uint32(p.Dst))<<8 | uint64(p.Class)
	if last, ok := sc.lastSeq[key]; ok && p.Seq <= last {
		sc.cnt.OrderViolations++
	} else {
		sc.lastSeq[key] = p.Seq
	}
	if sc.sharded {
		if sc.onDeliver != nil {
			sc.onDeliver(p)
		}
	} else if sc.n.OnDeliver != nil {
		sc.n.OnDeliver(p)
	}
	sc.pktPool.Put(p)
}
