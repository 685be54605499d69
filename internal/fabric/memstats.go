package fabric

import (
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Modeled per-record sizes for the control-state accounting (bytes).
// These mirror the Go structs backing each record so StateBytes tracks
// the real footprint, but they are fixed constants — the figure output
// never depends on platform, allocator or shard count.
const (
	memBytesQueue      = 80 // mempool.Queue descriptor
	memBytesRingSlot   = 40 // mempool.Entry ring slot
	memBytesPtrSlot    = 8  // queue pointer / page-table pointer
	memBytesCreditSlot = 8  // credit counter (and CNP clock) slot
	memBytesActiveSlot = 8  // active-list membership/stack slot
	memBytesDestSlot   = 72 // NIC admittance destination record
	memBytesCAMLine    = 56 // RECN CAM line (path + tag bookkeeping)
	memBytesSAQSlot    = 8  // RECN SAQ table pointer slot
)

type memAcc struct {
	stats.MemReport
}

func (r *memAcc) addQueueSet(qs *queueSet) {
	q, rs, ps := qs.memCount()
	r.Queues += q
	r.RingSlots += rs
	r.PtrSlots += ps
}

func (r *memAcc) addRC(materialized bool, maxSAQs int) {
	if materialized {
		r.CAMLines += maxSAQs
		r.SAQSlots += maxSAQs
	}
}

func (r *memAcc) finish() stats.MemReport {
	r.StateBytes = int64(r.Queues)*memBytesQueue +
		int64(r.RingSlots)*memBytesRingSlot +
		int64(r.PtrSlots)*memBytesPtrSlot +
		int64(r.CreditSlots)*memBytesCreditSlot +
		int64(r.ActiveSlots)*memBytesActiveSlot +
		int64(r.DestSlots)*memBytesDestSlot +
		int64(r.CAMLines)*memBytesCAMLine +
		int64(r.SAQSlots)*memBytesSAQSlot
	return r.MemReport
}

// MemStats walks every port unit and reports the control state the run
// has materialized so far (plus the data-RAM residency high-water
// marks). Under lazy materialization — the default — untouched
// destinations, credit pages and never-congested RECN controllers
// contribute nothing, so the same topology under the same policy can
// answer very differently depending on the traffic; the scaling figure
// is exactly that comparison. Deterministic: counts derive from which
// state was touched, which is identical across shard counts.
func (n *Network) MemStats() stats.MemReport {
	var r memAcc
	maxSAQs := n.cfg.RECN.MaxSAQs
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in == nil {
				continue
			}
			r.Ports++
			r.addQueueSet(&in.qs)
			r.ActiveSlots += in.active.memCount()
			r.PoolPeakBytes += int64(in.pool.Peak())
		}
		for _, out := range sw.out {
			if out == nil {
				continue
			}
			r.Ports++
			r.addQueueSet(&out.qs)
			r.ActiveSlots += out.active.memCount()
			r.CreditSlots += out.queueCredits.memCount()
			r.PoolPeakBytes += int64(out.pool.Peak())
		}
	}
	for _, nic := range n.nics {
		r.Ports++
		r.addQueueSet(&nic.inj.qs)
		r.ActiveSlots += nic.inj.active.memCount()
		r.CreditSlots += nic.inj.queueCredits.memCount()
		r.PoolPeakBytes += int64(nic.inj.pool.Peak())
		r.DestSlots += nic.dests.memCount()
		r.ActiveSlots += nic.active.memCount()
		if nic.thr != nil {
			r.CreditSlots += len(nic.thr.lastCNPAt)
		}
	}
	n.forEachCtl(func(c saqCtl, _ trace.Loc, _ *shardCtx) { r.addRC(c.Materialized(), maxSAQs) })
	return r.finish()
}

// EagerMemModel computes the construction-time control-state footprint
// the same configuration would have with EagerState set: every queue
// descriptor, credit counter, destination record and RECN controller
// fully preallocated (ring slots still grow on demand in both modes, so
// they are zero here). This is the denominator of the scaling figure's
// "lazy vs eager" ratio — analytic, so the 4k-host eager fabric never
// has to be built to be compared against.
func EagerMemModel(cfg Config) stats.MemReport {
	q, err := cfg.queuing()
	if err != nil {
		panic(err) // callers model a configuration New would accept
	}
	var r memAcc
	topo := cfg.Topo
	nSw := topo.NumSwitches()
	ports := topo.PortsPerSwitch()
	hosts := topo.NumHosts()
	inN, inCap := q.in.plan(&cfg)
	outN, _ := q.out.plan(&cfg)
	creditN := 0
	if inCap > 0 { // queue-level credits (see egressUnit.attach)
		creditN = inN
	}
	addUnit := func(nq int) {
		r.Ports++
		r.Queues += nq
		r.PtrSlots += nq
		r.ActiveSlots += nq
		if q.saqs {
			r.addRC(true, cfg.RECN.MaxSAQs)
		}
	}
	for sw := 0; sw < nSw; sw++ {
		for p := 0; p < ports; p++ {
			end := topo.Peer(sw, p)
			if end.Kind == topology.KindNone {
				continue
			}
			addUnit(inN)
			addUnit(outN)
			// Queue-level credits exist toward switch peers only (host
			// links use port-level credits).
			if end.Kind == topology.KindSwitch {
				r.CreditSlots += creditN
			}
		}
	}
	for h := 0; h < hosts; h++ {
		addUnit(outN) // the NIC injection port
		r.CreditSlots += creditN
		r.DestSlots += hosts
		r.ActiveSlots += hosts
		if q.side == sideECN {
			r.CreditSlots += hosts // the CNP coalescing clocks
		}
	}
	return r.finish()
}
