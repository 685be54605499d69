// Package repro is a library-level reproduction of "A New Scalable and
// Cost-Effective Congestion Management Strategy for Lossless Multistage
// Interconnection Networks" (Duato, Johnson, Flich, Naven, García,
// Nachiondo — HPCA 2005), the paper that introduced RECN.
//
// It bundles a picosecond-resolution discrete-event simulator of three
// topologies (the paper's perfect-shuffle bidirectional MINs of 8-port
// switches, k-ary n-trees with adaptive up-routing, and 2D meshes),
// seven queuing mechanisms (the paper's 1Q, 4Q, VOQsw, VOQnet and RECN
// with dynamically allocated set-aside queues, plus ECN-style source
// throttling and hint-driven adaptive routing), the paper's workloads,
// and runners that regenerate every table and figure of the evaluation.
// The package examples walk through the API, from one message on
// NewNetwork to a flight-recorded Run; go test checks each one against
// its output.
package repro

import (
	"context"
	"io"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/pkt"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Re-exported core types. The implementation lives in internal
// packages; these aliases are the public surface.
type (
	// Network is a fully wired simulation instance.
	Network = fabric.Network
	// Config configures a Network.
	Config = fabric.Config
	// Policy selects the queuing mechanism.
	Policy = fabric.Policy
	// Topology describes a multistage network.
	Topology = topology.Topology
	// Time is simulation time in picoseconds.
	Time = sim.Time
	// Options is the option set of figure reproduction runs: the one
	// declaration recnsim's flags and the sweep daemon's request body
	// share (Options.Validate checks it up front).
	Options = experiments.Options
	// OptionError is the typed rejection Options.Validate returns; Field
	// is the option's JSON name.
	OptionError = experiments.OptionError
	// Table is an aligned text table of reproduced series.
	Table = experiments.Table
	// Result carries the measurements of a single run.
	Result = experiments.Result
	// Run describes one simulation of one mechanism.
	Run = experiments.Run
	// RunCache is the on-disk run-result cache of figure sweeps, keyed
	// by Run.SpecHash (enable it with Options.CacheDir or Options.Cache).
	RunCache = experiments.RunCache
	// CacheSummary is one sweep's run-cache accounting (hits, misses and
	// the store failures a sweep does not fail on), delivered through
	// Options.OnCacheSummary.
	CacheSummary = experiments.CacheSummary
	// RunReport is the serializable form of a Result
	// (Result.Report / ResultFromReport convert between the two).
	RunReport = stats.Report
	// CornerCase is a Table 1 workload.
	CornerCase = traffic.CornerCase
	// Trace is a replayable message trace.
	Trace = traffic.Trace
	// Packet is a network packet (as seen by Network.OnDeliver).
	Packet = pkt.Packet
	// FaultPlan is a deterministic, seeded fault schedule (single-use).
	FaultPlan = fault.Plan
	// FaultRule is a per-message-kind probabilistic fault rule.
	FaultRule = fault.Rule
	// FaultKind identifies the traffic class a fault targets.
	FaultKind = fault.Kind
	// LinkFlap is one scheduled link-failure window.
	LinkFlap = fault.LinkFlap
	// FaultRecovery configures the watchdog/recovery layer.
	FaultRecovery = fault.Recovery
	// TraceConfig configures the flight recorder (ring size, event
	// mask, metrics sampling period).
	TraceConfig = trace.Config
	// TraceRecorder is a bound flight recorder; export its contents
	// with WriteChromeTrace, WriteText or WriteTrees after the run.
	TraceRecorder = trace.Recorder
	// TraceMask selects which event kinds are recorded.
	TraceMask = trace.Mask
	// TraceSeries is one sampled metric series; it implements Series.
	TraceSeries = trace.TimeSeries
	// Series is any fixed-bin time series (Throughput's rate view,
	// TraceSeries, ...).
	Series = stats.Series
	// SeriesSummary condenses a Series (see SummarizeSeries).
	SeriesSummary = stats.SeriesSummary
	// Checker is the runtime invariant checker; build one with
	// NewChecker, pass it via Config.Checker (checkers are single-use),
	// and call Network.FinalCheck after the run. Figure runs enable it
	// with Options.Check / Run.Check instead.
	Checker = check.Checker
	// CheckConfig tunes the checker (audit period, trace-tail length,
	// livelock window, collect-vs-panic mode).
	CheckConfig = check.Config
)

// NewChecker builds a runtime invariant checker from a config (zero
// value = defaults: panic on first violation, 10µs audit period).
func NewChecker(cfg CheckConfig) *Checker { return check.New(cfg) }

// SummarizeSeries scans a Series once and returns bins/mean/max/peak.
func SummarizeSeries(s Series) SeriesSummary { return stats.Summarize(s) }

// ErrCanceled is the typed error a canceled or timed-out sweep (or
// run) returns; detect it with errors.Is.
var ErrCanceled = experiments.ErrCanceled

// FprintTables writes tables back-to-back with no separator — the
// exact byte stream the daemon's text results endpoint serves (recnsim
// prints the same tables with a blank line after each).
func FprintTables(w io.Writer, tables []*Table) { experiments.FprintTables(w, tables) }

// OpenRunCache opens (creating if necessary) a run-result cache
// directory and verifies it is writable.
func OpenRunCache(dir string) (*RunCache, error) { return experiments.OpenRunCache(dir) }

// ServerConfig configures the sweep-as-a-service daemon (recnserved):
// listen address, run-cache directory, queue capacity and per-request
// admission limits, worker count, and queue-state persistence.
type ServerConfig = server.Config

// SweepServer is the daemon: an HTTP/JSON API over a bounded,
// admission-controlled job queue draining into the sweep engine, with
// live SSE result/trace streaming and a /metrics endpoint. Build one
// with NewSweepServer (tests drive Handler() directly) or run the whole
// lifecycle with Serve.
type SweepServer = server.Server

// NewSweepServer builds a daemon instance and starts its workers.
func NewSweepServer(cfg ServerConfig) (*SweepServer, error) { return server.New(cfg) }

// Serve builds the daemon and serves its API until ctx is canceled
// (recnserved wires SIGTERM/SIGINT here), then drains in-flight jobs,
// persists still-queued jobs, and returns.
func Serve(ctx context.Context, cfg ServerConfig) error { return server.Run(ctx, cfg) }

// ResultFromReport rebuilds a live Result from its serialized report.
func ResultFromReport(policy Policy, rep RunReport) (*Result, error) {
	return experiments.ResultFromReport(policy, rep)
}

// Fault targets for FaultPlan rules and scripted drops.
const (
	FaultCredit = fault.Credit
	FaultToken  = fault.Token
	FaultXon    = fault.Xon
	FaultXoff   = fault.Xoff
	FaultNotify = fault.Notify
	FaultData   = fault.Data
)

// NewFaultPlan returns an empty fault plan with the given RNG seed.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// DefaultFaultRecovery returns the recovery layer with default timers.
func DefaultFaultRecovery() FaultRecovery { return fault.DefaultRecovery() }

// ParseTraceEvents parses a comma-separated event spec ("saq,token",
// "packet", "tree", "all", …) into a TraceMask, as accepted by
// `recnsim -trace-events`.
func ParseTraceEvents(spec string) (TraceMask, error) { return trace.ParseEvents(spec) }

// ParseTime parses a duration with a unit suffix ("250ns", "1.5us",
// "2ms", "800ps") into a Time.
func ParseTime(s string) (Time, error) { return sim.ParseTime(s) }

// Queuing mechanisms (paper §4.3).
const (
	Policy1Q     = fabric.Policy1Q
	Policy4Q     = fabric.Policy4Q
	PolicyVOQsw  = fabric.PolicyVOQsw
	PolicyVOQnet = fabric.PolicyVOQnet
	PolicyRECN   = fabric.PolicyRECN
	// Extensions beyond the paper: ECN-style source throttling and
	// hint-driven adaptive routing (the shoot-out challengers).
	PolicyThrottle = fabric.PolicyThrottle
	PolicyARN      = fabric.PolicyARN
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// Policies lists all mechanisms in the paper's presentation order.
var Policies = fabric.Policies

// ParsePolicy converts a mechanism name ("RECN", "1Q", …) to a Policy.
func ParsePolicy(s string) (Policy, error) { return fabric.ParsePolicy(s) }

// NewTopology builds the paper's network for 64, 256 or 512 hosts (or
// any power of 4).
func NewTopology(hosts int) (*Topology, error) { return topology.ForHosts(hosts) }

// TopologyNames lists every topology name Options.Topo accepts.
func TopologyNames() string { return experiments.TopologyNames() }

// NewMeshNetwork builds a mesh simulation with default parameters.
func NewMeshNetwork(cols, rows int, policy Policy) (*Network, error) {
	m, err := topology.NewMesh(cols, rows)
	if err != nil {
		return nil, err
	}
	cfg := fabric.DefaultConfig(m)
	cfg.Policy = policy
	return fabric.New(cfg)
}

// DefaultConfig returns the evaluation defaults for a topology.
func DefaultConfig(t *Topology) Config { return fabric.DefaultConfig(t) }

// NewNetwork builds a simulation of the paper's network with default
// parameters and the given mechanism.
func NewNetwork(hosts int, policy Policy) (*Network, error) {
	topo, err := topology.ForHosts(hosts)
	if err != nil {
		return nil, err
	}
	cfg := fabric.DefaultConfig(topo)
	cfg.Policy = policy
	return fabric.New(cfg)
}

// NewNetworkConfig builds a simulation from an explicit configuration.
func NewNetworkConfig(cfg Config) (*Network, error) { return fabric.New(cfg) }

// Corner returns the paper's corner-case workload (Table 1 for 64
// hosts, the Figure 6 variants for 256/512).
func Corner(number, hosts, msgSize int, scale float64) (CornerCase, error) {
	return traffic.Corner(number, hosts, msgSize, scale)
}

// GenerateCelloTrace synthesizes the cello-model SAN workload as a
// replayable trace at time compression `compression`: message
// generation is captured without simulating the fabric. A timesharing
// system's I/O is sparse in real time, so at compression 1 a sub-ms
// window records almost nothing — the paper (and this library) works
// at compression 20–40. hosts selects the network size; seed makes it
// reproducible. See DESIGN.md §5 for the model.
func GenerateCelloTrace(hosts int, duration Time, compression float64, seed int64) (Trace, error) {
	eng := sim.NewEngine()
	rec := &traceRecorder{eng: eng, hosts: hosts}
	c := traffic.DefaultCello(compression)
	c.Duration = duration
	c.Seed = seed
	if err := c.Install(rec); err != nil {
		return nil, err
	}
	eng.Drain()
	rec.out.Sort()
	return rec.out, nil
}

// traceRecorder is a traffic.Network that only records injections.
type traceRecorder struct {
	eng   *sim.Engine
	hosts int
	out   traffic.Trace
}

func (r *traceRecorder) Hosts() int                  { return r.hosts }
func (r *traceRecorder) Now() Time                   { return r.eng.Now() }
func (r *traceRecorder) Schedule(at Time, fn func()) { r.eng.Schedule(at, fn) }
func (r *traceRecorder) Inject(src, dst, size int) {
	r.out = append(r.out, traffic.Record{T: r.eng.Now(), Src: src, Dst: dst, Size: size})
}

// WriteTrace writes a trace in the recn-trace text format.
func WriteTrace(w io.Writer, tr Trace) error { return traffic.WriteTrace(w, tr) }

// ReadTrace parses the recn-trace text format.
func ReadTrace(r io.Reader) (Trace, error) { return traffic.ReadTrace(r) }

// ReplayTrace installs a trace on a network with the paper's time
// compression factor. An injection that fails mid-run does not stop
// the run: Network.InjectErr reports it afterwards.
func ReplayTrace(net *Network, tr Trace, compression float64) error {
	return traffic.Replay{Trace: tr, Compression: compression}.Install(net.Traffic())
}

// FigureIDs lists every reproducible experiment, in paper order. (The
// registry itself lives in internal/experiments so the sweep daemon
// can run figures by ID; this facade delegates.)
func FigureIDs() []string { return experiments.FigureIDs() }

// SweepSAQs runs the SAQ-count ablation over an explicit list of
// per-port SAQ counts.
func SweepSAQs(o Options, counts []int) ([]*Table, error) {
	return ablation(o, experiments.AblationSAQCount, counts)
}

// SweepThresholds runs the detection-threshold ablation over an
// explicit list of byte thresholds.
func SweepThresholds(o Options, detectBytes []int) ([]*Table, error) {
	return ablation(o, experiments.AblationThreshold, detectBytes)
}

// ablation runs one list-taking ablation. Like Reproduce, it rejects an
// invalid option set with an *OptionError before anything simulates.
func ablation(o Options, run func(Options, []int) (*Table, error), list []int) ([]*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t, err := run(o, list)
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// Reproduce regenerates one of the paper's tables or figures by ID
// ("table1", "2a"–"2d", "3a"/"3b", "4a"/"4b", "5a"/"5b", "6a"/"6b",
// "pkt512a"/"pkt512b", ablations "a1"–"a4", and the latency extension
// "lat1"/"lat2"). Options.Scale trades fidelity for speed; 1.0
// reproduces the paper's durations. An unknown ID or an invalid option
// set is rejected with an *OptionError (Options.Validate) before
// anything simulates.
func Reproduce(id string, o Options) ([]*Table, error) {
	if err := o.Validate(id); err != nil {
		return nil, err
	}
	return experiments.Reproduce(id, o)
}
