package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Options is the one declaration of the option set every entry point
// shares. The JSON-tagged fields are the declarative options: recnsim
// binds a flag to each, the sweep daemon decodes its request body into
// them (server.SweepRequest embeds Options), Validate checks them and
// stamp applies them to runs. The untagged rest — hooks, handles and the
// worker count — belongs to whoever drives the sweep.
type Options struct {
	// Scale compresses all simulated times; 1.0 reproduces the paper's
	// durations (800 µs hotspot onset, 1600 µs runs).
	Scale float64 `json:"scale,omitempty"`
	// PacketSize in bytes (default 64, the paper's primary setting).
	PacketSize int `json:"packet_size,omitempty"`
	// MaxRows caps printed table rows (default 40).
	MaxRows int `json:"max_rows,omitempty"`
	// Policies overrides the mechanism list where applicable.
	Policies []fabric.Policy `json:"policies,omitempty"`
	// FaultSpec, if non-empty, injects faults into every run (see
	// fault.ParsePlan for the syntax) with the default recovery layer
	// enabled; the per-run fault/recovery accounting is appended to the
	// figure's table notes.
	FaultSpec string `json:"fault_spec,omitempty"`
	// ThrottleSpec / ARNSpec override the throttle and arn policy
	// tunables for every run that uses those policies (see
	// throttle.ParseSpec and fabric.ParseARNSpec). Empty = defaults
	// (and unchanged cache keys).
	ThrottleSpec string `json:"throttle_spec,omitempty"`
	ARNSpec      string `json:"arn_spec,omitempty"`
	// Topo selects the topology family for every run ("" = the paper's
	// perfect-shuffle MIN; see Run.Topo / BuildTopology).
	Topo string `json:"topo,omitempty"`
	// Shards runs every simulation on the windowed multi-core runtime
	// with this many shard engines (see Run.Shards); 0 keeps the serial
	// engine. Results are bit-identical across shard counts ≥ 1 but
	// deterministically differ from serial results, so sharded runs
	// cache under their own key.
	Shards int `json:"shards,omitempty"`
	// Check enables the runtime invariant checker on every run (see
	// Run.Check): audits are pure observers, so figures are identical
	// with checking on, but violations abort the figure with a
	// diagnostics snapshot. Checked runs bypass the result cache.
	Check bool `json:"check,omitempty"`
	// NoCache disables the cache even when CacheDir or Cache is set.
	NoCache bool `json:"no_cache,omitempty"`

	// Parallelism is the sweep worker-pool size: every figure, table
	// and ablation fans its independent runs across this many workers
	// (0 = GOMAXPROCS, 1 = serial). Results are reassembled in spec
	// order, so output is byte-identical at any setting.
	Parallelism int `json:"-"`
	// CacheDir, if non-empty, enables the on-disk run-result cache:
	// runs whose spec hash matches a stored entry load instead of
	// re-simulating (see RunCache).
	CacheDir string `json:"-"`
	// Cache, if non-nil, is an already-open run cache used instead of
	// CacheDir. Sharing one handle across concurrent sweeps (the
	// daemon's workers) lets duplicate specs single-flight in-process
	// on top of the on-disk store.
	Cache *RunCache `json:"-"`
	// OnCacheSummary, if set alongside a cache, receives the cache
	// accounting of each sweep as it completes — including the
	// store-failure tally a sweep deliberately does not fail on (a
	// failed cache write only costs a future re-simulation, but it must
	// not be silent: recnsim warns on stderr when StoreFailures > 0).
	OnCacheSummary func(CacheSummary) `json:"-"`
	// Trace, if non-nil, attaches a flight recorder to every run of
	// the figure (a fresh recorder per run — they are single-use).
	Trace *trace.Config `json:"-"`
	// OnTrace, if set alongside Trace, receives each run's recorder as
	// the figure's sweep finishes; label is the mechanism name (the
	// case label on the ablations, whose runs are all RECN).
	OnTrace func(label string, rec *trace.Recorder) `json:"-"`
	// Context, if non-nil, makes every sweep under these options
	// cancellable: when it is canceled or times out, sweeps stop
	// scheduling runs, interrupt in-flight serial runs, and return an
	// error matching errors.Is(err, ErrCanceled) (see SweepContext).
	// recnsim wires Ctrl-C/SIGTERM here; the daemon wires each job's
	// cancellation.
	Context context.Context `json:"-"`
	// OnRunDone, if set, is called as each run of a sweep completes
	// with the run's index, spec, result, and whether it was served
	// from the cache. Under Parallelism > 1 it is called concurrently
	// from worker goroutines and in completion (not spec) order; the
	// daemon streams these as live per-run events.
	OnRunDone func(index int, r Run, res *Result, cached bool) `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.PacketSize <= 0 {
		o.PacketSize = 64
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 40
	}
	return o
}

func (o Options) t(us float64) sim.Time {
	return sim.Time(us * o.Scale * float64(sim.Microsecond))
}

// OptionError is a rejected option. Field is the option's JSON name
// ("figures" for the figure list): the daemon reports it as is, recnsim
// prints the flag bound to it.
type OptionError struct {
	Field string
	Err   error
}

func (e *OptionError) Error() string { return e.Field + ": " + e.Err.Error() }
func (e *OptionError) Unwrap() error { return e.Err }

// Validate is the one up-front check of an option set against the
// figures it is about to reproduce: everything a CLI or the daemon can
// reject before the first simulation starts. The error is an
// *OptionError naming the offending field.
func (o Options) Validate(figures ...string) error {
	bad := func(field, format string, args ...any) error {
		return &OptionError{Field: field, Err: fmt.Errorf(format, args...)}
	}
	for _, id := range figures {
		if _, ok := registry[strings.ToLower(id)]; !ok {
			return bad("figures", "unknown %q (have %s)", id, strings.Join(FigureIDs(), ", "))
		}
	}
	if o.Scale < 0 {
		return bad("scale", "negative (%g)", o.Scale)
	}
	if o.Shards < 0 {
		return bad("shards", "%d: want 0 (serial) or a positive shard count", o.Shards)
	}
	if o.PacketSize > units.PortMemory {
		return bad("packet_size", "%d bytes exceed a port's %d-byte memory", o.PacketSize, units.PortMemory)
	}
	if !ValidTopology(o.Topo) {
		return bad("topo", "unknown %q (valid: %s)", o.Topo, TopologyNames())
	}
	if _, err := ValidatePolicyOptions(nil, o.ThrottleSpec, ""); err != nil {
		return &OptionError{Field: "throttle_spec", Err: err}
	}
	if _, err := ValidatePolicyOptions(nil, "", o.ARNSpec); err != nil {
		return &OptionError{Field: "arn_spec", Err: err}
	}
	if o.FaultSpec != "" {
		// The widest seed a run can derive: what parses here parses with
		// every run's own seed.
		plan, err := parseFaultSpec(o.FaultSpec, math.MaxInt64)
		if err != nil {
			return &OptionError{Field: "fault_spec", Err: err}
		}
		if o.Shards > 0 && plan.HasScriptedDrops() {
			return bad("shards", "%d with scripted drops (drop=KIND:N) in fault_spec: they consume a network-wide transmission order and need the serial engine", o.Shards)
		}
	}
	return nil
}

// parseFaultSpec parses a fault spec with "seed=auto" resolved to seed.
func parseFaultSpec(spec string, seed int64) (*fault.Plan, error) {
	return fault.ParsePlan(strings.ReplaceAll(spec, "seed=auto", fmt.Sprintf("seed=%d", seed)))
}

// stamp applies the option set to one run: the only place an option
// becomes a Run field.
func (o Options) stamp(r Run) Run {
	r.PacketSize = o.PacketSize
	r.Topo = o.Topo
	r.FaultSpec = o.FaultSpec
	r.ThrottleSpec = o.ThrottleSpec
	r.ARNSpec = o.ARNSpec
	r.Trace = o.Trace
	r.Check = o.Check
	r.Shards = o.Shards
	return r
}

// sweep stamps the runs, executes them through the sweep engine and
// hands every recorded trace to OnTrace under its run's label.
func (o Options) sweep(runs []Run, labels []string) ([]*Result, error) {
	for i := range runs {
		runs[i] = o.stamp(runs[i])
	}
	results, err := Sweep(runs, o)
	if err != nil {
		return nil, err
	}
	if o.OnTrace != nil {
		for i, res := range results {
			if res.Trace != nil {
				o.OnTrace(labels[i], res.Trace)
			}
		}
	}
	return results, nil
}
