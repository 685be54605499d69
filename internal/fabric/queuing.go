package fabric

import (
	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
)

// The policies the paper compares (§4.3) differ in one thing: how many
// queues each side of a port has and which one a packet takes. RECN
// adds dynamically allocated SAQs on top of its per-class queues, and
// the congestion-management extensions add an end-to-end sideband on
// top of single queues. queuings holds that as one row per Policy;
// fabric.New resolves the row once (Network.q), and every
// policy-dependent decision — queue plan, classification, credit
// granularity, lazy paging, SAQ gates, sideband hooks, the memory
// model — is derived from it.

// classKind is how one side of a port organizes its policy queues and
// picks one for a packet.
type classKind uint8

const (
	// classSingle: one queue.
	classSingle classKind = iota
	// classLeastOcc: four queues; a packet joins the least occupied
	// (4Q's virtual channels).
	classLeastOcc
	// classPerOutput: one queue per switch output port, picked by the
	// packet's turn at the switch (VOQsw's input side).
	classPerOutput
	// classPerDest: one queue per destination host (VOQnet).
	classPerDest
	// classPerClass: one queue per traffic class (RECN's queues for
	// uncongested flows, paper footnote 1).
	classPerClass
)

// sideband is the end-to-end mechanism layered on a policy's queues.
type sideband uint8

const (
	sideNone sideband = iota
	// sideECN: ECN marks on dequeue at congested switch port RAM,
	// destination CNPs and a per-source AIMD pacer at the NIC
	// (internal/throttle).
	sideECN
	// sideSteer: congested switches broadcast hints upstream and
	// ingress arbiters steer packets to an alternate up port (arn.go).
	sideSteer
)

// queuing is one policy's row of the trait table.
type queuing struct {
	name    string
	in, out classKind
	// saqs: RECN controllers allocate SAQs at every port (and NIC
	// injection port) on top of the class queues.
	saqs bool
	side sideband
}

var queuings = [...]queuing{
	Policy1Q:       {name: "1Q", in: classSingle, out: classSingle},
	Policy4Q:       {name: "4Q", in: classLeastOcc, out: classLeastOcc},
	PolicyVOQsw:    {name: "VOQsw", in: classPerOutput, out: classSingle},
	PolicyVOQnet:   {name: "VOQnet", in: classPerDest, out: classPerDest},
	PolicyRECN:     {name: "RECN", in: classPerClass, out: classPerClass, saqs: true},
	PolicyThrottle: {name: "throttle", in: classSingle, out: classSingle, side: sideECN},
	PolicyARN:      {name: "arn", in: classSingle, out: classSingle, side: sideSteer},
}

// queuing returns the policy's row; ok is false for a value outside
// the table.
func (p Policy) queuing() (q queuing, ok bool) {
	if p < 0 || int(p) >= len(queuings) {
		return queuing{}, false
	}
	return queuings[p], true
}

// plan returns the number of policy queues on a side of kind k and
// the per-queue cap. Queues per output port or per destination own a
// fixed share of the port RAM; the others share it (cap 0).
func (k classKind) plan(cfg *Config) (n, cap int) {
	switch k {
	case classLeastOcc:
		return 4, 0
	case classPerOutput:
		n = cfg.Topo.PortsPerSwitch()
		return n, cfg.PortMemory / n
	case classPerDest:
		n = cfg.Topo.NumHosts()
		return n, cfg.PortMemory / n
	case classPerClass:
		return cfg.TrafficClasses, 0
	}
	return 1, 0
}

// paged reports whether a side's queue and credit arrays are demand
// paged: per-destination sets are O(hosts) per port, the others small.
func (k classKind) paged(cfg *Config) bool { return k == classPerDest && !cfg.EagerState }

// classify returns the index of the policy queue a packet takes on a
// side of kind k. hop indexes the packet's route at the switch that
// forwards it next; qs is read only for least-occupied. Small enough
// to inline, so the hot path pays one branch on the kind.
func (k classKind) classify(qs *queueSet, p *pkt.Packet, hop int) int {
	switch k {
	case classLeastOcc:
		return leastOccupied(qs)
	case classPerOutput:
		return int(p.Route[hop])
	case classPerDest:
		return p.Dst
	case classPerClass:
		return int(p.Class)
	}
	return 0
}

func leastOccupied(qs *queueSet) int {
	best := 0
	for i := 1; i < qs.len(); i++ {
		if qs.at(i).QueuedBytes() < qs.at(best).QueuedBytes() {
			best = i
		}
	}
	return best
}

// initSide builds the policy queues of one port side.
func (s *queueSet) initSide(pool *mempool.Pool, kind classKind, cfg *Config) {
	n, qcap := kind.plan(cfg)
	s.init(pool, n, qcap, kind.paged(cfg))
	s.kind = kind
}

// pick returns the queue a packet is stored in: saq, the SAQ the port's
// RECN controller matched, when non-nil, else the policy queue the
// set's class kind picks (materialized on first touch).
func (s *queueSet) pick(saq *recn.SAQ, p *pkt.Packet, hop int) queueHandle {
	if saq != nil {
		return queueHandle{saq.Q, -1}
	}
	i := s.kind.classify(s, p, hop)
	return queueHandle{s.get(i), i}
}

// admits reports whether pick's queue could accept the packet right
// now (buffer space only), without materializing a lazy queue.
func (s *queueSet) admits(saq *recn.SAQ, p *pkt.Packet, hop int) bool {
	if saq != nil {
		return saq.Q.CanAccept(p.Size)
	}
	return s.canAccept(s.kind.classify(s, p, hop), p.Size)
}
