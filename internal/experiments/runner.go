// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4): the corner-case and SAN-trace throughput
// curves (Figures 2–3), the SAQ utilization series (Figures 4–5), the
// scalability runs (Figure 6), Table 1, and a set of ablations on the
// design choices (SAQ count, thresholds, token priority boost, in-order
// markers).
package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/throttle"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// netAdapter exposes a fabric.Network as a traffic.Network. Injection
// errors (generator bugs: bad host index, zero size) are collected into
// err rather than panicking, so one bad workload fails its own run
// instead of aborting a whole sweep; the first error wins. It also
// implements traffic.HostNetwork: on a sharded network HostView hands
// each source a view bound to its host's shard engine (with a private
// error slot, since the streams run concurrently), and ScheduleOn
// mailboxes cross-host work; on a serial network both collapse to the
// plain adapter.
type netAdapter struct {
	n   *fabric.Network
	err *error
	// herr is the per-host injection-error slots of a sharded run
	// (folded in host order after the run); nil on serial runs.
	herr []error
}

func (a netAdapter) Hosts() int                      { return a.n.Topology().NumHosts() }
func (a netAdapter) Now() sim.Time                   { return a.n.Engine.Now() }
func (a netAdapter) Schedule(at sim.Time, fn func()) { a.n.Engine.Schedule(at, fn) }
func (a netAdapter) Inject(src, dst, size int) {
	if err := a.n.InjectMessage(src, dst, size); err != nil && *a.err == nil {
		*a.err = err
	}
}

func (a netAdapter) HostView(host int) traffic.Network {
	if a.n.ShardCount() == 0 {
		return a
	}
	return hostAdapter{
		netAdapter: a,
		eng:        a.n.ShardEngine(a.n.HostShard(host)),
		slot:       &a.herr[host],
	}
}

func (a netAdapter) ScheduleOn(caller, host int, at sim.Time, fn func()) {
	a.n.ScheduleRemote(caller, host, at, fn)
}

// firstInjectErr folds the per-host error slots (lowest host wins, so
// the reported error does not depend on goroutine timing).
func (a netAdapter) firstInjectErr() error {
	if *a.err != nil {
		return *a.err
	}
	for _, err := range a.herr {
		if err != nil {
			return err
		}
	}
	return nil
}

// hostAdapter is one host's injection surface on a sharded network:
// time and scheduling come from the host's shard engine, and injection
// errors land in the host's own slot.
type hostAdapter struct {
	netAdapter
	eng  *sim.Engine
	slot *error
}

func (a hostAdapter) Now() sim.Time                   { return a.eng.Now() }
func (a hostAdapter) Schedule(at sim.Time, fn func()) { a.eng.Schedule(at, fn) }
func (a hostAdapter) Inject(src, dst, size int) {
	if err := a.n.InjectMessage(src, dst, size); err != nil && *a.slot == nil {
		*a.slot = err
	}
}

// Run describes one simulation of one mechanism under one workload.
type Run struct {
	Hosts      int
	Policy     fabric.Policy
	PacketSize int
	// Topo selects the topology family: "" or "min" is the paper's
	// perfect-shuffle MIN, "fattree" the k-ary n-tree with deterministic
	// adaptive up-routing, "mesh" a square 2D mesh (Hosts must be a
	// perfect square). See BuildTopology.
	Topo string
	// Key names the non-declarative parts of the spec (the Workload and
	// Mutate closures) for the sweep engine: it feeds SpecKey/SpecHash,
	// which identify the run in the result cache and derive the run's
	// RNG seeds. Two runs may share a Key only if their closures are
	// interchangeable. A run whose closures are set but whose Key is
	// empty is never cached.
	Key string
	// Workload installs the traffic generators.
	Workload func(traffic.Network) error
	// Until is the measurement horizon; events beyond it still drain
	// if DrainAll is set.
	Until sim.Time
	// Bin is the reporting bin width.
	Bin sim.Time
	// DrainAll keeps simulating past the horizon until the network is
	// empty, then verifies the quiesce invariants (used by tests; the
	// figure runs cut off at the horizon like the paper's plots).
	DrainAll bool
	// Mutate, if set, adjusts the fabric configuration (ablations).
	Mutate func(*fabric.Config)
	// LatencyWindows, if set, adds one latency summary per window to the
	// run's meters (Result.Windows): a packet delivered inside a window
	// counts there. Declarative like every meter, so it feeds SpecKey.
	LatencyWindows []Window
	// Faults, if set, injects the plan's faults into the run (plans are
	// single-use). Recovery configures the watchdog/repair layer.
	Faults   *fault.Plan
	Recovery fault.Recovery
	// FaultSpec, if non-empty and Faults is nil, is parsed into a fresh
	// plan per Execute (multi-policy figures reuse one Run template, and
	// plans are single-use). A run with faults but a disabled Recovery
	// gets the default recovery timers: injecting faults without the
	// repair layer is only useful in targeted tests, which set Faults
	// directly.
	FaultSpec string
	// ThrottleSpec, if non-empty, overrides the throttle policy tunables
	// (throttle.ParseSpec syntax, e.g. "mark=16384,min=100"). ARNSpec
	// does the same for the arn policy ("on=16384,off=4096"). Both are
	// declarative and feed SpecKey, so runs with different tunables never
	// collide in the result cache; empty specs leave the defaults — and
	// every pre-existing cache key — untouched.
	ThrottleSpec string
	ARNSpec      string
	// Trace, if non-nil, attaches a flight recorder built from this
	// config to the run (recorders are single-use, so like FaultSpec a
	// fresh one is created per Execute). The recorder is returned in
	// Result.Trace.
	Trace *trace.Config
	// Shards, when > 0, runs the simulation on the windowed multi-core
	// runtime: the fabric is partitioned into that many shard engines
	// synchronized by link-latency windows (see fabric.Network.Shard).
	// Results are bit-identical across every Shards value ≥ 1 but differ
	// (deterministically) from the serial Shards == 0 engine, whose event
	// interleaving windowing does not reproduce; sharded runs are
	// therefore never mixed with serial runs in one comparison, and they
	// cache under their own key (see SpecKey).
	Shards int
	// Check attaches the runtime invariant checker (internal/check): the
	// audits verify packet conservation, flow-control bounds, SAQ/CAM
	// lifecycle and progress during the run, and a violation aborts the
	// run with a structured error carrying a diagnostics snapshot.
	// Audits are pure observers, so a clean checked run produces results
	// bit-identical to an unchecked one; checked runs never use the
	// result cache (a cache hit would skip the checking).
	Check bool
}

// Result carries everything measured during a run.
type Result struct {
	Policy          fabric.Policy
	Throughput      *stats.Throughput
	SAQ             *stats.SAQSeries
	Latency         *stats.Latency
	Injected        uint64
	Delivered       uint64
	OrderViolations uint64
	Events          uint64
	// Faults is the fault/recovery accounting (nil when the run had
	// neither fault injection nor recovery configured).
	Faults *stats.FaultReport
	// Mem is the end-of-run materialized-state accounting (nil on
	// results loaded from cache entries that predate the memory model).
	Mem *stats.MemReport
	// Trace is the run's flight recorder (nil when tracing was off).
	Trace *trace.Recorder
	// Windows holds one latency summary per Run.LatencyWindows entry.
	Windows []*stats.Latency
}

// Window is a half-open span [From, To) of simulated time.
type Window struct{ From, To sim.Time }

// meters are the measurements one stream of deliveries feeds: a serial
// run's own, or one shard's, merged into the run's after a windowed run
// (bin sums and histogram adds commute, so the merge is shard-invariant).
type meters struct {
	tp      *stats.Throughput
	lat     *stats.Latency
	windows []*stats.Latency
}

func newMeters(bin sim.Time, windows int) (meters, error) {
	tp, err := stats.NewThroughput(bin)
	m := meters{tp: tp, lat: stats.NewLatency(), windows: make([]*stats.Latency, windows)}
	for i := range m.windows {
		m.windows[i] = stats.NewLatency()
	}
	return m, err
}

// deliver records one packet delivered at now.
func (m meters) deliver(now sim.Time, p *pkt.Packet, windows []Window) {
	m.tp.Add(now, p.Size)
	d := now - p.CreatedAt
	m.lat.Add(d)
	for i, w := range windows {
		if now >= w.From && now < w.To {
			m.windows[i].Add(d)
		}
	}
}

func (m meters) merge(o meters) error {
	m.lat.Merge(o.lat)
	for i, w := range o.windows {
		m.windows[i].Merge(w)
	}
	return m.tp.Merge(o.tp)
}

// buildConfig resolves the run's declarative fields into a fabric
// configuration: topology, policy, packet size and the port-memory
// sizing rules. ExecuteContext layers the tunable specs and Mutate on
// top; EagerMemModel reuses it so the analytic eager footprint is
// computed for exactly the configuration the run simulates.
func (r Run) buildConfig() (fabric.Config, error) {
	topo, err := BuildTopology(r.Topo, r.Hosts)
	if err != nil {
		return fabric.Config{}, err
	}
	cfg := fabric.DefaultConfig(topo)
	cfg.Policy = r.Policy
	if r.PacketSize > 0 {
		cfg.PacketSize = r.PacketSize
	}
	// The paper gives the 512-host network 192 KB ports so VOQnet can
	// hold one queue per destination (§4.1).
	if r.Policy == fabric.PolicyVOQnet && r.Hosts == 512 {
		cfg.PortMemory = units.PortMemoryLarge
	}
	// Beyond the paper's sizes the same rule generalizes: VOQnet needs
	// one queue per destination at every port, so give each queue room
	// for four packets (the 1k/4k scaling runs; lazy materialization
	// means the nominal RAM is never actually allocated up front).
	if r.Policy == fabric.PolicyVOQnet && r.Hosts >= 1024 {
		cfg.PortMemory = r.Hosts * cfg.PacketSize * 4
	}
	return cfg, nil
}

// EagerMemModel returns the analytic construction-time footprint the
// run's configuration would have fully preallocated (EagerState forced
// on) — the denominator of the scaling figure's lazy-vs-eager ratio.
func (r Run) EagerMemModel() (stats.MemReport, error) {
	cfg, err := r.buildConfig()
	if err != nil {
		return stats.MemReport{}, err
	}
	if r.Mutate != nil {
		r.Mutate(&cfg)
	}
	cfg.EagerState = true
	return fabric.EagerMemModel(cfg), nil
}

// BuildTopology resolves a topology name and host count (see Run.Topo).
// Unknown names list the valid ones, so CLI -topo validation and error
// text stay in one place.
func BuildTopology(name string, hosts int) (fabric.Topology, error) {
	switch strings.ToLower(name) {
	case "", "min":
		return topology.ForHosts(hosts)
	case "fattree", "fat-tree":
		return topology.NewFatTree(hosts)
	case "mesh":
		side := 1
		for side*side < hosts {
			side++
		}
		if side*side != hosts {
			return nil, fmt.Errorf("experiments: mesh topology needs a square host count, got %d", hosts)
		}
		return topology.NewMesh(side, side)
	default:
		return nil, fmt.Errorf("experiments: unknown topology %q (valid: %s)", name, TopologyNames())
	}
}

// TopologyNames lists every Run.Topo value BuildTopology accepts, for
// usage strings and error messages.
func TopologyNames() string { return "min, fattree, mesh" }

// ValidTopology reports whether BuildTopology accepts the name (host
// count constraints aside — a mesh still wants a square host count).
// CLIs and the sweep daemon use it to reject topology selections
// before any simulation starts.
func ValidTopology(name string) bool {
	switch strings.ToLower(name) {
	case "", "min", "fattree", "fat-tree", "mesh":
		return true
	}
	return false
}

// Execute builds the network, installs the workload and simulates.
func (r Run) Execute() (*Result, error) { return r.ExecuteContext(context.Background()) }

// ExecuteContext is Execute under a context. A serial run checks for
// cancellation at horizon-fraction boundaries (the event stream is not
// perturbed: the engine runs the same events in the same order, just in
// chunks, so results stay bit-identical to an uncancelled Execute); a
// canceled run returns an error matching errors.Is(err, ErrCanceled).
// Sharded runs check only before starting — the windowed runtime owns
// its barrier loop — so their cancellation granularity is the whole run.
func (r Run) ExecuteContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiments: run not started: %w", ErrCanceled)
	}
	if r.Until <= 0 {
		return nil, fmt.Errorf("experiments: no horizon")
	}
	if r.Bin <= 0 {
		r.Bin = r.Until / 100
	}
	cfg, err := r.buildConfig()
	if err != nil {
		return nil, err
	}
	if r.ThrottleSpec != "" {
		if cfg.Throttle, err = throttle.ParseSpec(r.ThrottleSpec); err != nil {
			return nil, err
		}
	}
	if r.ARNSpec != "" {
		if cfg.ARN, err = fabric.ParseARNSpec(r.ARNSpec); err != nil {
			return nil, err
		}
	}
	if r.Mutate != nil {
		r.Mutate(&cfg)
	}
	faults := r.Faults
	if faults == nil && r.FaultSpec != "" {
		// "seed=auto" resolves to the spec-derived seed: stable across
		// submission order and parallelism, distinct across runs with
		// different specs (each policy of a fault sweep gets its own
		// deterministic fault stream).
		faults, err = parseFaultSpec(r.FaultSpec, r.DerivedSeed())
		if err != nil {
			return nil, err
		}
	}
	recovery := r.Recovery
	if faults != nil && !recovery.Enabled {
		recovery = fault.DefaultRecovery()
	}
	cfg.Faults = faults
	cfg.Recovery = recovery
	var rec *trace.Recorder
	if r.Trace != nil {
		rec = trace.New(*r.Trace)
		cfg.Tracer = rec
	}
	if r.Check {
		if cfg.Tracer == nil {
			// A small diagnostic ring so violation snapshots carry the
			// recent event history even when the caller asked for no
			// trace; it is not returned in Result.Trace.
			cfg.Tracer = trace.New(trace.Config{BufferEvents: 512})
		}
		cfg.Checker = check.New(check.Config{})
	}
	net, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.Shards > 0 {
		if _, err := net.Shard(r.Shards); err != nil {
			return nil, err
		}
	}

	m, err := newMeters(r.Bin, len(r.LatencyWindows))
	if err != nil {
		return nil, err
	}
	saq, err := stats.NewSAQSeries(r.Bin)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy:     r.Policy,
		Throughput: m.tp,
		SAQ:        saq,
		Latency:    m.lat,
		Windows:    m.windows,
	}
	// Each shard meters its own deliveries on its own goroutine.
	shards := make([]meters, net.ShardCount())
	for i := range shards {
		if shards[i], err = newMeters(r.Bin, len(r.LatencyWindows)); err != nil {
			return nil, err
		}
		sm, eng := shards[i], net.ShardEngine(i)
		net.SetShardOnDeliver(i, func(p *pkt.Packet) { sm.deliver(eng.Now(), p, r.LatencyWindows) })
	}
	if len(shards) == 0 {
		net.OnDeliver = func(p *pkt.Packet) { m.deliver(net.Engine.Now(), p, r.LatencyWindows) }
	}
	if r.Policy == fabric.PolicyRECN {
		period := r.Bin / 4
		if period <= 0 {
			period = r.Bin
		}
		var sample func()
		sample = func() {
			total, maxIn, maxEg := net.SAQUsage()
			res.SAQ.Observe(net.Engine.Now(), stats.SAQSample{Total: total, MaxIngress: maxIn, MaxEgress: maxEg})
			if net.Engine.Now() < r.Until {
				net.Engine.After(period, sample)
			}
		}
		net.Engine.Schedule(0, sample)
	}
	var injectErr error
	adapter := netAdapter{n: net, err: &injectErr}
	if net.ShardCount() > 0 {
		adapter.herr = make([]error, net.Topology().NumHosts())
	}
	if r.Workload != nil {
		if err := r.Workload(adapter); err != nil {
			return nil, err
		}
	}
	if err := r.simulate(ctx, net); err != nil {
		return nil, err
	}
	if err := adapter.firstInjectErr(); err != nil {
		return nil, fmt.Errorf("experiments: workload injection: %w", err)
	}
	for _, sm := range shards {
		if err := m.merge(sm); err != nil {
			return nil, err
		}
	}
	res.Injected = net.InjectedPackets
	res.Delivered = net.DeliveredPackets
	res.OrderViolations = net.OrderViolations
	res.Events = net.TotalEvents()
	res.Faults = net.FaultReport()
	mem := net.MemStats()
	res.Mem = &mem
	if rec != nil {
		res.Trace = net.MergedTracer()
	}
	return res, nil
}

// simulate runs the event loop and, for checked runs, converts an
// invariant-violation panic into the run's error: the checker aborts
// from deep inside an event handler, and the recover boundary here is
// what turns that into a structured failure instead of a crashed sweep
// worker. The violation's Detail() carries the diagnostics snapshot.
func (r Run) simulate(ctx context.Context, net *fabric.Network) (err error) {
	if r.Check {
		defer func() {
			if rec := recover(); rec != nil {
				v, ok := rec.(*check.Violation)
				if !ok {
					panic(rec) // not ours: a real bug, keep crashing
				}
				err = fmt.Errorf("experiments: invariant violation:\n%s", v.Detail())
			}
		}()
	}
	if net.ShardCount() > 0 {
		net.RunWindowed(r.Until)
		if r.DrainAll {
			net.DrainWindowed()
		} else {
			net.FinishWindowed()
		}
	} else {
		// Run the horizon in chunks, checking the context between them.
		// Chunking dispatches the exact same events in the exact same
		// order as one Run call — the chunk boundaries only bound how
		// late a cancellation is noticed — so results, event counts and
		// trace stamps do not depend on it.
		step := r.Until / 128
		if step <= 0 {
			step = r.Until
		}
		for at := step; ; at += step {
			if at > r.Until {
				at = r.Until
			}
			net.Engine.Run(at)
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("experiments: run interrupted at %v: %w", net.Engine.Now(), ErrCanceled)
			}
			if at == r.Until {
				break
			}
		}
		if r.DrainAll {
			net.Engine.Drain()
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("experiments: run interrupted during drain: %w", ErrCanceled)
			}
		}
	}
	if r.DrainAll {
		if r.Check {
			// FinalCheck subsumes CheckQuiesced and adds the end-of-run
			// accounting plus the wait-graph diagnosis for stuck packets.
			if verr := net.FinalCheck(); verr != nil {
				if v, ok := verr.(*check.Violation); ok {
					return fmt.Errorf("experiments: invariant violation:\n%s", v.Detail())
				}
				return verr
			}
			return nil
		}
		if err := net.CheckQuiesced(); err != nil {
			return err
		}
	}
	return nil
}

// CornerWorkload wraps traffic.Corner as a Run workload.
func CornerWorkload(number, hosts, msgSize int, scale float64) (func(traffic.Network) error, sim.Time, error) {
	c, err := traffic.Corner(number, hosts, msgSize, scale)
	if err != nil {
		return nil, 0, err
	}
	return c.Install, c.SimEnd, nil
}

// CelloWorkload wraps the cello trace model as a Run workload; the run
// horizon extends past generation so queued replies are observed.
func CelloWorkload(compression, scale float64) (func(traffic.Network) error, sim.Time) {
	c := traffic.DefaultCello(compression)
	c.Duration = sim.Time(float64(c.Duration) * scale)
	horizon := c.Duration + c.Duration/4
	return c.Install, horizon
}

// celloMutate configures the fabric for trace replays: the paper
// replays every trace record, so host-side admittance buffering is
// unbounded (the finite AdmitCap models open-loop synthetic sources
// and would drop bulk I/O replies policy-dependently).
func celloMutate(cfg *fabric.Config) { cfg.AdmitCap = 0 }
