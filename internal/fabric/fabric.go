// Package fabric assembles the full simulated network: switches with
// input/output buffered ports and a multiplexed crossbar, full-duplex
// pipelined links carrying data and control traffic, NICs with
// admittance and injection queues, credit-based flow control, and the
// five queuing mechanisms the paper compares (1Q, 4Q, VOQsw, VOQnet and
// RECN).
//
// The model follows the paper's Section 4.1: 8 Gbps links, a 12 Gbps
// multiplexed crossbar per switch, 128 KB of data RAM per port shared
// by dynamically allocated queues, port-level credits (queue-level for
// the VOQ mechanisms), per-SAQ Xon/Xoff, and control packets that share
// link bandwidth with data.
package fabric

import (
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/fault"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/throttle"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/units"
)

// Policy selects the queue organization at every port (paper §4.3).
type Policy int

const (
	// Policy1Q: a single queue per input and output port (worst case).
	Policy1Q Policy = iota
	// Policy4Q: four queues per port; packets go to the least occupied
	// (virtual channels).
	Policy4Q
	// PolicyVOQsw: per input port, one queue per switch output port.
	PolicyVOQsw
	// PolicyVOQnet: one queue per final destination at every input and
	// output port (the non-scalable best case).
	PolicyVOQnet
	// PolicyRECN: one queue for uncongested flows plus dynamically
	// allocated SAQs (the paper's proposal).
	PolicyRECN
	// PolicyThrottle: single queues (as 1Q) plus end-point injection
	// throttling — ECN marks at congested output queues, destination
	// CNPs back to the marked source, and a per-source AIMD injection
	// pacer at the NIC (the DCQCN family; internal/throttle).
	PolicyThrottle
	// PolicyARN: single queues (as 1Q) plus adaptive-routing
	// notifications — congested switches broadcast hints upstream, and
	// ingress arbiters steer packets to an alternate interchangeable
	// up port where the topology offers one (see steer).
	PolicyARN
)

// Policies lists all mechanisms: the five in the order the paper
// presents them, then the congestion-management extensions (appended at
// the end so the paper figures' policy order — and with it every
// existing golden — is untouched).
var Policies = []Policy{PolicyVOQnet, Policy1Q, PolicyVOQsw, Policy4Q, PolicyRECN, PolicyThrottle, PolicyARN}

func (p Policy) String() string {
	if q, ok := p.queuing(); ok {
		return q.name
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PreservesOrder reports whether the mechanism keeps each flow's
// packets in injection order. A least-occupied side (4Q) spreads a
// flow across queues, and a steering sideband (arn) re-routes packets
// mid-flow past queued siblings — both reorder by design (for arn this
// is the classic adaptive-routing cost the paper's in-order RECN
// avoids; see DESIGN.md §16). All other mechanisms must deliver in
// order, and the test battery asserts it.
func (p Policy) PreservesOrder() bool {
	q, _ := p.queuing()
	return q.in != classLeastOcc && q.out != classLeastOcc && q.side != sideSteer
}

// ParsePolicy converts a mechanism name to a Policy (case-insensitive).
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fabric: unknown policy %q (valid: %s)", s, PolicyNames())
}

// MarshalText and UnmarshalText put a Policy on the wire by name, so a
// JSON "policies":["RECN","1Q"] decodes straight into []Policy.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Policy) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePolicy(string(text))
	return err
}

// PolicyNames returns every mechanism name ParsePolicy accepts, for
// error messages and usage strings.
func PolicyNames() string {
	names := make([]string, len(Policies))
	for i, p := range Policies {
		names[i] = p.String()
	}
	return strings.Join(names, ", ")
}

// Topology is what the fabric needs from a network graph: port wiring,
// host attachment and deterministic source routes. The perfect-shuffle
// MINs of the paper (*topology.Topology) implement it, and so does the
// 2D mesh (*topology.Mesh) — RECN itself is topology-agnostic as long
// as routing is deterministic (the remaining path from any switch to a
// destination must be unique, paper §3).
type Topology interface {
	NumHosts() int
	NumSwitches() int
	// PortsPerSwitch bounds port indices; unused ports answer
	// Peer(...).Kind == KindNone.
	PortsPerSwitch() int
	Peer(sw, port int) topology.End
	HostAttach(host int) (sw, port int)
	Route(src, dst int) (pkt.Route, error)
}

// Config describes one network instance.
type Config struct {
	// Topo is the network topology (required).
	Topo Topology
	// Policy is the queuing mechanism.
	Policy Policy
	// PacketSize in bytes (the paper uses 64 and 512).
	PacketSize int
	// PortMemory is the data RAM per port in bytes (default 128 KB;
	// the paper uses 192 KB for the 512-host network under VOQnet).
	PortMemory int
	// LinkLatency is the pipelined link fly time.
	LinkLatency sim.Time
	// CreditSize is the wire size of a credit return.
	CreditSize int
	// NormalWeight is the weighted-round-robin preference of normal
	// queues over SAQs: out of NormalWeight+1 grants at most one goes
	// to a SAQ while normal traffic is waiting.
	NormalWeight int
	// AdmitCap bounds each NIC admittance queue (host buffering per
	// destination): a new message is discarded at the host when its
	// queue already holds at least this many bytes. 0 = unbounded.
	// Finite host buffers are what lets a hotspot's backlog drain in
	// the hundreds of microseconds the paper's recovery curves show,
	// rather than persisting for milliseconds.
	AdmitCap int
	// TrafficClasses is the number of queues for uncongested flows at
	// every RECN port (paper footnote 1: several such queues provide
	// multiple traffic classes; one is enough for congestion
	// management). Packets carry a class chosen at injection.
	TrafficClasses int
	// RECN holds the SAQ controller thresholds, read (and validated)
	// only when the policy allocates SAQs — today PolicyRECN.
	RECN recn.Config
	// Throttle holds the ECN/AIMD tunables, read (and validated) only
	// when the policy's sideband is ECN marking — today PolicyThrottle.
	Throttle throttle.Config
	// ARN holds the adaptive-routing hint thresholds, read (and
	// validated) only when the policy's sideband steers — today
	// PolicyARN.
	ARN ARNConfig
	// Faults, when non-nil, injects the plan's faults into the links.
	// Plans are single-use: a plan already bound to another network is
	// rejected by New.
	Faults *fault.Plan
	// Recovery enables the watchdog/recovery layer. The zero value
	// disables it entirely (no events scheduled, hot path unchanged).
	Recovery fault.Recovery
	// Tracer, when non-nil, records simulation events into the flight
	// recorder. Like Faults, recorders are single-use: one already
	// bound to another network is rejected by New. nil keeps every
	// hook down to a single pointer comparison.
	Tracer *trace.Recorder
	// Checker, when non-nil, runs the runtime invariant checker
	// (internal/check): periodic conservation/lifecycle/progress audits
	// with structured violations. Checkers are single-use, like Faults
	// and Tracer; nil keeps every hook down to a single nil comparison.
	Checker *check.Checker
	// EagerState disables lazy queue/credit materialization, restoring
	// the fully preallocated per-port state of the pre-slab fabric.
	// Lazy and eager runs are bit-identical by construction (untouched
	// state behaves exactly like freshly built state, and materialized
	// entries are visited in dense index order); the flag exists so the
	// golden tests can assert that equivalence and so the scaling
	// figures can measure the eager footprint at small sizes.
	EagerState bool
}

// DefaultConfig returns the evaluation defaults for a topology.
func DefaultConfig(topo Topology) Config {
	mem := units.PortMemory
	return Config{
		Topo:        topo,
		Policy:      PolicyRECN,
		PacketSize:  64,
		PortMemory:  mem,
		LinkLatency: 20 * sim.Nanosecond,
		CreditSize:  8,
		// Normal queues are preferred over SAQs, but a hard service
		// ratio would throttle SAQ-captured flows below their offered
		// load and make congestion self-sustaining; alternation
		// (weight 1) preserves the preference while staying
		// work-conserving for the set-aside traffic.
		NormalWeight:   1,
		AdmitCap:       12 * 1024,
		TrafficClasses: 1,
		RECN:           recn.DefaultConfig(),
		Throttle:       throttle.DefaultConfig(),
		ARN:            DefaultARNConfig(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Topo == nil {
		return fmt.Errorf("fabric: nil topology")
	}
	q, err := c.queuing()
	if err != nil {
		return err
	}
	if c.PacketSize <= 0 || c.PacketSize > c.PortMemory {
		return fmt.Errorf("fabric: packet size %d vs port memory %d", c.PacketSize, c.PortMemory)
	}
	if c.LinkLatency < 0 {
		return fmt.Errorf("fabric: negative link latency")
	}
	if c.CreditSize <= 0 {
		return fmt.Errorf("fabric: credit size %d", c.CreditSize)
	}
	if c.NormalWeight < 1 {
		return fmt.Errorf("fabric: normal weight %d < 1", c.NormalWeight)
	}
	if c.AdmitCap < 0 {
		return fmt.Errorf("fabric: negative admittance cap")
	}
	if c.TrafficClasses < 1 || c.TrafficClasses > 256 {
		return fmt.Errorf("fabric: traffic classes %d outside [1, 256]", c.TrafficClasses)
	}
	if q.saqs {
		if err := c.RECN.Validate(); err != nil {
			return err
		}
	}
	switch q.side {
	case sideECN:
		if err := c.Throttle.Validate(); err != nil {
			return err
		}
	case sideSteer:
		if err := c.ARN.Validate(); err != nil {
			return err
		}
	}
	for _, k := range [...]classKind{q.in, q.out} {
		if _, qcap := k.plan(c); qcap > 0 && qcap < c.PacketSize {
			return fmt.Errorf("fabric: %s queue capacity %d bytes cannot hold a %d-byte packet (raise PortMemory, the paper uses 192 KB for 512 hosts under VOQnet)",
				q.name, qcap, c.PacketSize)
		}
	}
	return nil
}

// queuing resolves the configured policy's row of the trait table
// (queuing.go) — the one place the fabric reads Config.Policy.
func (c *Config) queuing() (queuing, error) {
	if q, ok := c.Policy.queuing(); ok {
		return q, nil
	}
	return queuing{}, fmt.Errorf("fabric: unknown policy %v (valid: %s)", c.Policy, PolicyNames())
}

// Network is one fully wired simulation instance. All methods must be
// called from the simulation goroutine (in windowed mode: from barrier
// context — see Shard and RunWindowed in window.go).
type Network struct {
	// Engine is the global event engine: the only engine in legacy
	// mode, the coordinator engine (periodic drivers, link flaps) in
	// windowed mode.
	Engine *sim.Engine
	cfg    Config
	topo   Topology
	// q is the policy's row of the trait table (queuing.go).
	q queuing

	switches []*Switch
	nics     []*NIC

	// Slab arenas backing the per-port objects: one allocation per kind
	// for the whole fabric instead of one per port. switches/nics and
	// the units' own pointers index into these; outSlab additionally
	// holds the NIC injection ports at slots nSwitches*ports+host. The
	// RECN controller slabs exist only when the policy uses SAQs.
	swSlab    []Switch
	inSlab    []ingressUnit
	outSlab   []egressUnit
	nicSlab   []NIC
	rcInSlab  []recn.Ingress
	rcOutSlab []recn.Egress

	// base is the legacy/coordinator shard context: it aliases Engine
	// and the embedded aggregate counters, and owns the free-lists in
	// legacy mode. shards/group exist only after Shard (windowed mode).
	base       *shardCtx
	shards     []*shardCtx
	group      *sim.ShardGroup
	windowStep sim.Time
	hostShard  []int32
	// remoteMark tracks per-host ScheduleRemote calls (windowed mode):
	// each entry is written only by the owning host's shard, and gives
	// cross-stream injections a shard-count-invariant order key.
	remoteMark []remoteMark
	// windowsDone marks the windowed run as finished (per-shard stats
	// folded, worker goroutines released).
	windowsDone bool
	// injectErr is Traffic's per-host injection-error slots plus the
	// network-wide view's (nil until Traffic is first called).
	injectErr []error

	// drivers is the periodic-driver table (periodic.go).
	drivers [numDrivers]driver

	// Flight recorder (nil when tracing is disabled).
	rec    *trace.Recorder
	probes []traceProbe

	// Fault injection and recovery (nil / zero when disabled).
	faults   *fault.Plan
	recovery fault.Recovery
	report   *stats.FaultReport
	watchdog watchdogState

	// Runtime invariant checker (nil when disabled).
	check      *check.Checker
	checkState checkerState

	// OnDeliver, when set, observes every packet at the instant it is
	// fully delivered to its destination host. The packet is recycled
	// into the injection pool as soon as the callback returns, so
	// observers must copy any fields they need and must not retain p.
	// Windowed mode uses per-shard observers instead (SetShardOnDeliver).
	OnDeliver func(p *pkt.Packet)

	// Aggregate counters (InjectedPackets, DeliveredBytes, ...). In
	// windowed mode these are barrier-consistent sums over the shards.
	netCounters
}

// New builds a network. The engine clock starts at zero.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Engine: sim.NewEngine(),
		cfg:    cfg,
		topo:   cfg.Topo,
	}
	n.q, _ = cfg.queuing()
	n.base = &shardCtx{
		n:       n,
		id:      -1,
		eng:     n.Engine,
		cnt:     &n.netCounters,
		lastSeq: make(map[uint64]uint64),
	}
	// Construction and wiring order is load-bearing: switches, NICs and
	// (transitively) channels live in slices iterated by index, never in
	// maps, so unit creation order — and with it every derived identity
	// (wiring-order channel IDs, shard partition boundaries, mailbox
	// merge keys, per-channel fault-stream salts) — is the same on every
	// run. Audited when the windowed runtime landed: no construction or
	// per-event path in this package ranges over a map (the one map, the
	// base context's lastSeq, is only ever indexed).
	topo := cfg.Topo
	nSw := topo.NumSwitches()
	hosts := topo.NumHosts()
	ports := topo.PortsPerSwitch()
	n.swSlab = make([]Switch, nSw)
	n.inSlab = make([]ingressUnit, nSw*ports)
	n.outSlab = make([]egressUnit, nSw*ports+hosts)
	n.nicSlab = make([]NIC, hosts)
	if n.q.saqs {
		n.rcInSlab = make([]recn.Ingress, nSw*ports)
		n.rcOutSlab = make([]recn.Egress, nSw*ports+hosts)
	}
	n.switches = make([]*Switch, nSw)
	for id := range n.switches {
		sw := &n.swSlab[id]
		if err := sw.init(n, id); err != nil {
			return nil, err
		}
		n.switches[id] = sw
	}
	n.nics = make([]*NIC, hosts)
	for h := range n.nics {
		nic := &n.nicSlab[h]
		var rc *recn.Egress
		if n.rcOutSlab != nil {
			rc = &n.rcOutSlab[nSw*ports+h]
		}
		if err := nic.init(n, h, &n.outSlab[nSw*ports+h], rc); err != nil {
			return nil, err
		}
		n.nics[h] = nic
	}
	// Wire channels now that all units exist. Wiring errors (a topology
	// whose Peer/HostAttach answers are inconsistent) surface here as
	// validation errors rather than construction-time panics.
	for _, sw := range n.switches {
		if err := sw.wire(); err != nil {
			return nil, err
		}
	}
	for _, nic := range n.nics {
		if err := nic.wire(); err != nil {
			return nil, err
		}
	}
	if cfg.Faults != nil || cfg.Recovery.Enabled {
		n.report = &stats.FaultReport{}
		n.base.report = n.report
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Bind(n.report); err != nil {
			return nil, err
		}
		n.faults = cfg.Faults
		if err := n.applyFlaps(); err != nil {
			return nil, err
		}
	}
	if cfg.Recovery.Enabled {
		n.recovery = cfg.Recovery.WithDefaults()
	}
	if cfg.Tracer != nil {
		if err := n.installTracer(cfg.Tracer); err != nil {
			return nil, err
		}
	}
	if cfg.Checker != nil {
		if err := n.installChecker(cfg.Checker); err != nil {
			return nil, err
		}
	}
	n.initDrivers()
	return n, nil
}

// Tracer returns the flight recorder, or nil when tracing is disabled.
func (n *Network) Tracer() *trace.Recorder { return n.rec }

// applyFlaps schedules the plan's link-failure windows.
func (n *Network) applyFlaps() error {
	for i, f := range n.faults.Flaps {
		ch, err := n.flapChannel(f)
		if err != nil {
			return fmt.Errorf("fault: flap %d: %w", i, err)
		}
		n.Engine.Schedule(f.Down, func() {
			ch.down = true
			n.report.LinkDowns++
			if n.rec != nil {
				n.rec.Record(trace.EvFault, ch.loc, "link", 0, trace.FaultLinkDown, 0)
			}
		})
		n.Engine.Schedule(f.Up, func() {
			ch.down = false
			n.report.LinkUps++
			if n.rec != nil {
				n.rec.Record(trace.EvFault, ch.loc, "link", 0, trace.FaultLinkUp, 0)
			}
			ch.kick()
		})
	}
	return nil
}

// flapChannel resolves the link direction a flap addresses.
func (n *Network) flapChannel(f fault.LinkFlap) (*channel, error) {
	if f.Host >= 0 {
		if f.Host >= len(n.nics) {
			return nil, fmt.Errorf("host %d outside [0, %d)", f.Host, len(n.nics))
		}
		return n.nics[f.Host].inj.ch, nil
	}
	if f.Switch < 0 || f.Switch >= len(n.switches) {
		return nil, fmt.Errorf("switch %d outside [0, %d)", f.Switch, len(n.switches))
	}
	sw := n.switches[f.Switch]
	if f.Port < 0 || f.Port >= len(sw.out) || sw.out[f.Port] == nil {
		return nil, fmt.Errorf("switch %d has no output port %d", f.Switch, f.Port)
	}
	return sw.out[f.Port].ch, nil
}

// FaultReport returns the fault/recovery accounting, or nil when
// neither fault injection nor recovery is configured.
func (n *Network) FaultReport() *stats.FaultReport { return n.report }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the network topology.
func (n *Network) Topology() Topology { return n.topo }

// NIC returns the network interface of a host.
func (n *Network) NIC(host int) *NIC { return n.nics[host] }

// Switch returns a switch by ID.
func (n *Network) Switch(id int) *Switch { return n.switches[id] }

// InjectMessage generates a message of the given size at src destined
// to dst at the current simulation time (traffic class 0). The message
// is packetized into PacketSize packets and stored in the NIC
// admittance queue for dst.
func (n *Network) InjectMessage(src, dst, size int) error {
	return n.InjectMessageClass(src, dst, size, 0)
}

// InjectMessageClass is InjectMessage with an explicit traffic class
// (must be below Config.TrafficClasses).
func (n *Network) InjectMessageClass(src, dst, size int, class uint8) error {
	if src == dst {
		return fmt.Errorf("fabric: message from host %d to itself", src)
	}
	if src < 0 || src >= len(n.nics) || dst < 0 || dst >= len(n.nics) {
		return fmt.Errorf("fabric: message %d→%d out of range", src, dst)
	}
	if size <= 0 {
		return fmt.Errorf("fabric: message size %d", size)
	}
	if int(class) >= n.cfg.TrafficClasses {
		return fmt.Errorf("fabric: class %d outside the %d configured", class, n.cfg.TrafficClasses)
	}
	nic := n.nics[src]
	if err := nic.injectMessage(dst, size, class); err != nil {
		return err
	}
	// Every driver but the sweep, which SAQ allocation arms.
	for id := drvWatchdog; id < numDrivers; id++ {
		nic.sc.arm(id)
	}
	return nil
}

// idleSweepPeriod is how often idle never-used SAQs are collected so
// their tokens return and congestion trees can collapse (see
// recn.SweepIdle). Sweeps recur only while SAQs exist, so a quiescent
// network drains its event queue.
const idleSweepPeriod = 50 * sim.Microsecond

// runSweep is the sweep driver's tick (periodic.go).
func (n *Network) runSweep() bool {
	n.forEachCtl(func(c saqCtl, _ trace.Loc, _ *shardCtx) { c.SweepIdle() })
	total, _, _ := n.SAQUsage()
	return total > 0
}

// SAQUsage returns the current total number of allocated SAQs in the
// whole network and the maximum per ingress and egress port (the series
// plotted in the paper's Figures 4–6). NIC injection ports count as
// egress ports.
func (n *Network) SAQUsage() (total, maxIngress, maxEgress int) {
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in == nil || in.rc == nil {
				continue
			}
			c := in.rc.ActiveSAQs()
			total += c
			if c > maxIngress {
				maxIngress = c
			}
		}
		for _, out := range sw.out {
			if out == nil || out.rc == nil {
				continue
			}
			c := out.rc.ActiveSAQs()
			total += c
			if c > maxEgress {
				maxEgress = c
			}
		}
	}
	for _, nic := range n.nics {
		if nic.inj.rc == nil {
			continue
		}
		c := nic.inj.rc.ActiveSAQs()
		total += c
		if c > maxEgress {
			maxEgress = c
		}
	}
	return total, maxIngress, maxEgress
}

// RECNStats aggregates the controller event counters over the whole
// network (all ingress and egress controllers plus NIC injection
// ports). Zero value when the policy is not RECN.
func (n *Network) RECNStats() recn.Stats {
	var agg recn.Stats
	n.forEachCtl(func(c saqCtl, _ trace.Loc, _ *shardCtx) {
		s := c.Stats()
		agg.Allocs += s.Allocs
		agg.Deallocs += s.Deallocs
		agg.Refusals += s.Refusals
		agg.NotifySent += s.NotifySent
		agg.TokensSent += s.TokensSent
		agg.XoffSent += s.XoffSent
		agg.XonSent += s.XonSent
		agg.StaleMsgs += s.StaleMsgs
		agg.MarkersPlaced += s.MarkersPlaced
	})
	return agg
}

// saqCtl is what the network-wide walks need from a RECN controller of
// either side.
type saqCtl interface {
	ActiveSAQs() int
	CAMUsed() int
	Materialized() bool
	Stats() recn.Stats
	SweepIdle()
	SetTracer(recn.Tracer)
}

// forEachCtl visits every RECN controller in construction order — per
// switch its inputs, then its outputs, then the NIC injection ports —
// with the owning unit's trace location and shard context. Without
// SAQs in the policy there is nothing to visit.
func (n *Network) forEachCtl(fn func(c saqCtl, loc trace.Loc, sc *shardCtx)) {
	if !n.q.saqs {
		return
	}
	for _, sw := range n.switches {
		for _, in := range sw.in {
			if in != nil {
				fn(in.rc, in.loc(), in.sc)
			}
		}
		for _, out := range sw.out {
			if out != nil {
				fn(out.rc, out.loc(), out.sc)
			}
		}
	}
	for _, nic := range n.nics {
		fn(nic.inj.rc, nic.inj.loc(), nic.inj.sc)
	}
}

// RootCount returns how many output ports are currently congestion-tree
// roots.
func (n *Network) RootCount() int {
	count := 0
	for _, sw := range n.switches {
		for _, out := range sw.out {
			if out != nil && out.rc != nil && out.rc.Root() {
				count++
			}
		}
	}
	return count
}

// PendingPackets returns injected minus delivered packets — zero after
// the network quiesces (the losslessness check). Windowed mode: the
// counters are barrier-consistent aggregates, so call from barrier
// context only.
func (n *Network) PendingPackets() uint64 {
	return n.InjectedPackets - n.DeliveredPackets
}

// liveXferCount returns the crossbar transfers currently in flight
// (summed over shards in windowed mode; barrier context only).
func (n *Network) liveXferCount() int {
	if n.shards == nil {
		return n.base.liveXfers
	}
	c := 0
	for _, sc := range n.shards {
		c += sc.liveXfers
	}
	return c
}

// CheckQuiesced verifies end-of-run invariants: every packet delivered,
// all RAM released, all credits returned, all SAQs deallocated and no
// congestion roots left. It returns a descriptive error on violation.
func (n *Network) CheckQuiesced() error {
	if n.PendingPackets() != 0 {
		return fmt.Errorf("fabric: %d packets still pending", n.PendingPackets())
	}
	for _, sw := range n.switches {
		for p, in := range sw.in {
			if in == nil {
				continue
			}
			if in.pool.Used() != 0 {
				return fmt.Errorf("fabric: switch %d in[%d] RAM leak: %d bytes", sw.id, p, in.pool.Used())
			}
			if in.rc != nil && in.rc.ActiveSAQs() != 0 {
				return fmt.Errorf("fabric: switch %d in[%d] leaks %d SAQs", sw.id, p, in.rc.ActiveSAQs())
			}
		}
		for p, out := range sw.out {
			if out == nil {
				continue
			}
			if out.pool.Used() != 0 {
				return fmt.Errorf("fabric: switch %d out[%d] RAM leak: %d bytes", sw.id, p, out.pool.Used())
			}
			if out.rc != nil {
				if out.rc.ActiveSAQs() != 0 {
					return fmt.Errorf("fabric: switch %d out[%d] leaks %d SAQs", sw.id, p, out.rc.ActiveSAQs())
				}
				if out.rc.Root() {
					return fmt.Errorf("fabric: switch %d out[%d] still a root", sw.id, p)
				}
			}
			if err := out.checkCredits(); err != nil {
				return fmt.Errorf("fabric: switch %d out[%d]: %w", sw.id, p, err)
			}
		}
	}
	if n.q.side == sideSteer {
		for _, sw := range n.switches {
			if sw.congOut != 0 {
				return fmt.Errorf("fabric: switch %d still reports %d congested outputs after quiesce", sw.id, sw.congOut)
			}
			for p, out := range sw.out {
				if out == nil {
					continue
				}
				if out.hintOn {
					return fmt.Errorf("fabric: switch %d out[%d] hint still on after quiesce", sw.id, p)
				}
				// A dropped hint-off (fault injection classifies hints as
				// droppable notifications) legitimately leaves hintStop
				// stale — it only costs routing quality, never
				// correctness — so assert it clear only on fault-free runs.
				if out.hintStop && n.faults == nil {
					return fmt.Errorf("fabric: switch %d out[%d] hint-stop stale after quiesce", sw.id, p)
				}
			}
		}
	}
	for h, nic := range n.nics {
		if nic.inj.pool.Used() != 0 {
			return fmt.Errorf("fabric: NIC %d RAM leak: %d bytes", h, nic.inj.pool.Used())
		}
		if nic.inj.rc != nil && nic.inj.rc.ActiveSAQs() != 0 {
			return fmt.Errorf("fabric: NIC %d leaks %d SAQs", h, nic.inj.rc.ActiveSAQs())
		}
		if err := nic.inj.checkCredits(); err != nil {
			return fmt.Errorf("fabric: NIC %d: %w", h, err)
		}
		if nic.backlog != 0 {
			return fmt.Errorf("fabric: NIC %d admittance backlog %d", h, nic.backlog)
		}
		if nic.thr != nil {
			// CNPs travel via ScheduleRemote (never over faultable
			// channels) so recovery to full injection is unconditional:
			// once traffic stops, additive increase must have restored the
			// line rate before the event queue drained.
			if !nic.thr.state.Full() {
				return fmt.Errorf("fabric: NIC %d injection rate stuck at %d‰ after quiesce", h, nic.thr.state.RateMilli)
			}
			if nic.thr.aiArmed {
				return fmt.Errorf("fabric: NIC %d additive-increase timer still armed at full rate", h)
			}
		}
	}
	return nil
}
