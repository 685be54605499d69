package fabric

import (
	"fmt"

	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/throttle"
	"repro/internal/trace"
	"repro/internal/units"
)

// hostQueue is an unbounded FIFO of packets (a NIC admittance queue).
// Admittance queues model host memory, which the paper treats as
// unbounded: sources keep generating traffic regardless of congestion.
type hostQueue struct {
	ring  []*pkt.Packet
	head  int
	count int
}

func (q *hostQueue) push(p *pkt.Packet) {
	if q.count == len(q.ring) {
		n := len(q.ring) * 2
		if n == 0 {
			n = 8
		}
		next := make([]*pkt.Packet, n)
		for i := 0; i < q.count; i++ {
			next[i] = q.ring[(q.head+i)%len(q.ring)]
		}
		q.ring = next
		q.head = 0
	}
	q.ring[(q.head+q.count)%len(q.ring)] = p
	q.count++
}

func (q *hostQueue) peek() *pkt.Packet { return q.ring[q.head] }

func (q *hostQueue) pop() *pkt.Packet {
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	return p
}

// nicDest is one destination's admittance state: the VOQ, its queued
// bytes (AdmitCap accounting), and the cached route.
type nicDest struct {
	q     hostQueue
	bytes int
	route pkt.Route
}

// destSet is the per-destination admittance array, dense or
// demand-paged: a 4k-host NIC only pays for the destinations it
// actually sends to. Pages give stable interior pointers, so a *nicDest
// stays valid across later materializations.
type destSet struct {
	n     int
	lazy  bool
	dense []nicDest
	pages [][]nicDest
}

func (s *destSet) init(n int, lazy bool) {
	*s = destSet{n: n, lazy: lazy}
	if !lazy {
		s.dense = make([]nicDest, n)
	}
}

// at returns destination i's state, or nil when untouched (callers
// index via the active list, which only holds touched destinations).
func (s *destSet) at(i int) *nicDest {
	if !s.lazy {
		return &s.dense[i]
	}
	if s.pages == nil {
		return nil
	}
	pg := s.pages[i>>statePageBits]
	if pg == nil {
		return nil
	}
	return &pg[i&(statePageLen-1)]
}

// get returns destination i's state, materializing its page on first
// touch.
func (s *destSet) get(i int) *nicDest {
	if !s.lazy {
		return &s.dense[i]
	}
	if s.pages == nil {
		s.pages = make([][]nicDest, (s.n+statePageLen-1)>>statePageBits)
	}
	pi := i >> statePageBits
	pg := s.pages[pi]
	if pg == nil {
		pg = make([]nicDest, statePageLen)
		s.pages[pi] = pg
	}
	return &pg[i&(statePageLen-1)]
}

// memCount reports materialized destination slots, for the memory
// model.
func (s *destSet) memCount() (slots int) {
	if !s.lazy {
		return len(s.dense)
	}
	slots = len(s.pages)
	for _, pg := range s.pages {
		if pg != nil {
			slots += statePageLen
		}
	}
	return
}

// NIC is a host's network interface (paper §4.1): N admittance queues
// organized as VOQs (one per destination), an arbiter that moves
// packetized messages into the injection port, and an injection port
// that follows the switch-output-port scheme — so under RECN, SAQs are
// dynamically allocated at the NIC injection side too. The reception
// side consumes packets at link rate and returns credits.
type NIC struct {
	net  *Network
	sc   *shardCtx
	host int

	attachSw   int
	attachPort int

	dests   destSet
	active  activeList
	rr      int
	backlog int // packets waiting in admittance queues

	inj *egressUnit

	seq   map[uint32]uint64 // (dst, class) → next sequence number
	idSeq uint64            // windowed-mode per-host packet ID counter

	pumpScheduled bool
	// runPumpFn is nic.runPump bound once, so pump never allocates a
	// method value on the hot path.
	runPumpFn func()

	// thr is the AIMD injection pacer (ECN sideband only, else nil —
	// every hook below costs one nil comparison otherwise).
	thr *nicThrottle
	// Prebound event thunks for the pacer (see runPumpFn).
	onCNPFn  func()
	aiTickFn func()
	paceFn   func()
}

// nicThrottle is one host's end-point congestion-control state
// (the ECN sideband): the DCQCN-style loop of ECN marks at congested
// switch output buffers, destination-generated CNPs back to the marked
// source, and a per-source AIMD rate limiter pacing the NIC pump.
// Everything is integer arithmetic on simulated time, so runs stay
// bit-identical across shard counts.
type nicThrottle struct {
	// state is the source-side AIMD rate in [MinRateMilli, 1000]‰ of
	// line rate (internal/throttle).
	state throttle.State
	// payAt is the pacing horizon: the instant the bytes already pumped
	// have paid for at the current rate. The pump stalls until then;
	// at full rate nothing is ever charged.
	payAt sim.Time
	// aiArmed: the additive-increase timer is scheduled. Invariant
	// (audited by the checker): rate < full ⇒ aiArmed, so a throttled
	// source always climbs back to line rate once CNPs stop.
	aiArmed bool
	// paceArmed dedups the payAt retry event.
	paceArmed bool
	// lastCNPAt[src] is the destination-side CNP coalescing clock: at
	// most one CNP per source per CNPInterval (0 = never sent; the
	// engine clock is positive whenever packets arrive).
	lastCNPAt []sim.Time
}

// init builds the NIC in place (NICs live in a slab arena — see
// fabric.New). inj is the NIC's slot in the egress-unit arena and rc
// its RECN controller slot (nil unless the policy uses SAQs).
func (nic *NIC) init(net *Network, host int, inj *egressUnit, rc *recn.Egress) error {
	hosts := net.topo.NumHosts()
	sw, port := net.topo.HostAttach(host)
	nic.net = net
	nic.sc = net.base
	nic.host = host
	nic.attachSw = sw
	nic.attachPort = port
	nic.dests.init(hosts, !net.cfg.EagerState)
	nic.active.init(hosts, !net.cfg.EagerState)
	nic.seq = make(map[uint32]uint64)
	nic.runPumpFn = nic.runPump
	if err := inj.init(net, nil, 0, true, rc); err != nil {
		return err
	}
	nic.inj = inj
	inj.nic = nic
	if net.q.side == sideECN {
		nic.thr = &nicThrottle{state: throttle.NewState()}
		if net.cfg.EagerState {
			nic.thr.lastCNPAt = make([]sim.Time, hosts)
		}
		nic.onCNPFn = nic.onCNP
		nic.aiTickFn = nic.aiTick
		nic.paceFn = nic.paceFire
	}
	return nil
}

// wire connects the injection channel to the attachment switch. A host
// attached to an unused or out-of-range switch port is a validation
// error, not a panic.
func (nic *NIC) wire() error {
	if nic.attachSw < 0 || nic.attachSw >= len(nic.net.switches) {
		return fmt.Errorf("fabric: host %d attached to nonexistent switch %d", nic.host, nic.attachSw)
	}
	sw := nic.net.switches[nic.attachSw]
	if nic.attachPort < 0 || nic.attachPort >= len(sw.in) || sw.in[nic.attachPort] == nil {
		return fmt.Errorf("fabric: host %d attached to unused port %d of switch %d", nic.host, nic.attachPort, nic.attachSw)
	}
	nic.inj.attach(sw.in[nic.attachPort], false)
	return nil
}

// Backlog returns the number of packets waiting in admittance queues.
func (nic *NIC) Backlog() int { return nic.backlog }

// injectMessage packetizes a message and stores it in the admittance
// queue for its destination (paper §4.1: the message is stored
// completely in the admittance queue and packetized before transfer to
// an injection queue).
func (nic *NIC) injectMessage(dst, size int, class uint8) error {
	d := nic.dests.get(dst)
	route := d.route
	if route == nil {
		r, err := nic.net.topo.Route(nic.host, dst)
		if err != nil {
			return err
		}
		d.route = r
		route = r
	}
	// Finite host buffering: discard the message when the destination's
	// admittance queue is already at the cap (the whole message is
	// accepted when below it, so messages larger than the cap work).
	if cap := nic.net.cfg.AdmitCap; cap > 0 && d.bytes >= cap {
		nic.sc.cnt.DroppedMessages++
		if nic.sc.rec != nil {
			nic.sc.rec.Record(trace.EvDrop, nic.inj.loc(), "", int64(dst), int64(size), 0)
		}
		return nil
	}
	now := nic.sc.eng.Now()
	pktSize := nic.net.cfg.PacketSize
	seqKey := uint32(dst)<<8 | uint32(class)
	for rem := size; rem > 0; rem -= pktSize {
		sz := pktSize
		if rem < sz {
			sz = rem
		}
		var id uint64
		if nic.sc.sharded {
			// Windowed mode: a global injection counter would depend on
			// the shard interleaving. Per-host IDs depend only on this
			// host's own injection stream, which is shard-count-invariant.
			nic.idSeq++
			id = uint64(nic.host+1)<<40 | nic.idSeq
		} else {
			nic.sc.pktSeq++
			id = nic.sc.pktSeq
		}
		nic.seq[seqKey]++
		p := nic.sc.pktPool.Get()
		*p = pkt.Packet{
			ID:        id,
			Src:       nic.host,
			Dst:       dst,
			Size:      sz,
			Class:     class,
			Route:     route,
			Seq:       nic.seq[seqKey],
			CreatedAt: now,
		}
		d.q.push(p)
		d.bytes += sz
		nic.active.add(dst)
		nic.backlog++
		nic.sc.cnt.InjectedPackets++
		nic.sc.cnt.InjectedBytes += uint64(sz)
	}
	nic.pump()
	return nil
}

// pump moves packets from admittance queues to the injection port in
// round-robin order while the injection buffers accept them. Runs as a
// scheduled event so a burst of messages is handled once.
func (nic *NIC) pump() {
	if nic.pumpScheduled {
		return
	}
	nic.pumpScheduled = true
	nic.sc.eng.Schedule(nic.sc.eng.Now(), nic.runPumpFn)
}

func (nic *NIC) runPump() {
	nic.pumpScheduled = false
	for {
		moved := false
		tried := 0
		for nic.active.len() > 0 && tried < nic.active.len() {
			// The AIMD pacer gates the whole pump, not one destination:
			// throttling is per source (paceReady arms the retry).
			if !nic.paceReady() {
				return
			}
			idx := nic.active.at(nic.rr % nic.active.len())
			d := nic.dests.at(idx)
			if d.q.count == 0 {
				nic.active.remove(idx)
				continue
			}
			p := d.q.peek()
			// The pump honors the injection SAQ's internal gate: the
			// admittance queues are per-destination VOQs, so holding
			// one back causes no HOL blocking.
			if !nic.inj.admitProbe(p, p.Hop) || nic.inj.gated(p, p.Hop) {
				nic.rr++
				tried++
				continue
			}
			d.q.pop()
			d.bytes -= p.Size
			nic.backlog--
			nic.rr++
			p.InjectedAt = nic.sc.eng.Now()
			nic.charge(p.Size)
			nic.inj.storePacket(p, -1)
			moved = true
		}
		if !moved {
			return
		}
	}
}

// --- The ECN sideband: the end-point AIMD pacer ---

// paceReady reports whether the pacer allows the next packet now; when
// not, it arms a single retry at the pacing horizon.
func (nic *NIC) paceReady() bool {
	t := nic.thr
	if t == nil {
		return true
	}
	now := nic.sc.eng.Now()
	if now >= t.payAt {
		return true
	}
	if !t.paceArmed {
		t.paceArmed = true
		nic.sc.eng.Schedule(t.payAt, nic.paceFn)
	}
	return false
}

func (nic *NIC) paceFire() {
	nic.thr.paceArmed = false
	nic.pump()
}

// charge advances the pacing horizon for one injected packet: the gap
// is the packet's line-rate serialization time scaled up by the inverse
// of the current rate, so the long-run injection rate converges to
// rate/1000 of line rate. A source at full rate is never charged — the
// pacer then adds zero work and zero delay.
func (nic *NIC) charge(size int) {
	t := nic.thr
	if t == nil || t.state.Full() {
		return
	}
	gap := units.LinkRate.Serialize(size) *
		sim.Time(throttle.FullRateMilli) / sim.Time(t.state.RateMilli)
	if now := nic.sc.eng.Now(); t.payAt < now {
		t.payAt = now
	}
	t.payAt += gap
}

// noteMark runs at the destination: a marked packet from src arrived,
// so send src a congestion notification packet unless one went out
// within the coalescing interval. The CNP travels via ScheduleRemote —
// host-to-host signaling outside the faultable data channels, with a
// shard-count-invariant delivery order — after the configured feedback
// delay (which must exceed the link latency for windowed-mode
// invariance; the default is 25× it).
func (nic *NIC) noteMark(src int) {
	t := nic.thr
	now := nic.sc.eng.Now()
	cfg := &nic.net.cfg.Throttle
	if t.lastCNPAt == nil {
		// Materialized on the first mark: most destinations never see
		// one, and the zero value ("never sent") is the initial state.
		t.lastCNPAt = make([]sim.Time, nic.net.topo.NumHosts())
	}
	if last := t.lastCNPAt[src]; last != 0 && now-last < cfg.CNPInterval {
		return
	}
	t.lastCNPAt[src] = now
	nic.net.ScheduleRemote(nic.host, src, now+cfg.FeedbackDelay, nic.net.nics[src].onCNPFn)
}

// onCNP runs at the source: multiplicative decrease, and arm the
// additive-increase timer if it is not already running.
func (nic *NIC) onCNP() {
	t := nic.thr
	cfg := &nic.net.cfg.Throttle
	t.state.OnCNP(*cfg)
	if nic.sc.rec != nil {
		nic.sc.rec.Record(trace.EvMark, nic.inj.loc(), "cnp", int64(t.state.RateMilli), 0, 0)
	}
	if !t.aiArmed {
		t.aiArmed = true
		nic.sc.eng.After(cfg.Period, nic.aiTickFn)
	}
}

// aiTick is the additive-increase timer: one rate step per period,
// self-rescheduling only while below full rate — so a quiescent network
// drains its event queue and every source provably returns to line
// rate within SettleTicks periods of the last CNP.
func (nic *NIC) aiTick() {
	t := nic.thr
	cfg := &nic.net.cfg.Throttle
	if t.state.OnTick(*cfg) {
		t.aiArmed = false
		return
	}
	nic.sc.eng.After(cfg.Period, nic.aiTickFn)
}

// --- linkSink (the switch→host channel) ---

// arriveData delivers a packet to the host: it is consumed immediately
// and the buffer credit returns to the last switch. deliver recycles
// the packet, so the credit size is copied out first.
func (nic *NIC) arriveData(p *pkt.Packet) {
	if nic.sc.rec != nil {
		nic.sc.rec.RecordPacket(trace.EvRecv, nic.hostLoc(), p.ID, p.Size, p.Src, p.Dst)
	}
	size := p.Size
	if nic.thr != nil && p.Marked {
		// Copied out before deliver recycles the packet.
		nic.noteMark(p.Src)
	}
	nic.sc.deliver(p)
	nic.inj.ch.pushCredit(size, -1)
}

// arriveCredit returns injection credits from the first switch.
func (nic *NIC) arriveCredit(c creditMsg) { nic.inj.addCredit(c) }

// arriveCtl handles RECN control from the first switch's input port:
// notifications and Xon/Xoff address the injection port's controller.
// Tokens toward a host cannot occur (reception ports never notify).
func (nic *NIC) arriveCtl(m recn.CtlMsg) {
	if nic.inj.rc == nil {
		return
	}
	switch m.Kind {
	case recn.MsgNotify:
		nic.inj.rc.OnUpstreamNotification(m.Path)
		// A marker may now sit in the injection normal queue; run the
		// arbiter so it gets peeled even with no new injections.
		nic.inj.ch.kick()
		nic.sc.arm(drvSweep)
	case recn.MsgXoff:
		nic.inj.rc.OnXoffFromDownstream(m.Path)
	case recn.MsgXon:
		nic.inj.rc.OnXonFromDownstream(m.Path)
		nic.inj.ch.kick()
	case recn.MsgToken:
		// Reception side has no RECN state; ignore.
	}
}

// auditResident: hosts consume packets instantly, so the switch→host
// link never has bytes resident at the receiver.
func (nic *NIC) auditResident(queue int) int { return 0 }

// reverseQuiet reports whether the host→switch direction (which carries
// the reception credits back) is silent.
func (nic *NIC) reverseQuiet(now sim.Time) bool { return nic.inj.ch.quiet(now) }

var _ linkSink = (*NIC)(nil)
