// Command recnsim reproduces the paper's tables and figures.
//
// Usage:
//
//	recnsim -fig 2a [-scale 0.5] [-pkt 64] [-rows 40] [-j 8] [-shards 4]
//	recnsim -fig 2a -trace out.json [-trace-events tree] [-trace-bin 500ns]
//	recnsim -fig a1 [-counts 1,2,4,8,16]      # a2 takes -kb 4,8,16,32,64
//	recnsim -list
//	recnsim -all [-scale 0.25] [-j $(nproc)] [-cache ~/.cache/recn]
//
// Figure IDs: table1, 2a–2d, 3a/3b, 4a/4b, 5a/5b, 6a/6b,
// pkt512a/pkt512b, the ablations a1–a4 (SAQs per port, detection
// threshold, token priority boost, in-order markers), and the
// extensions (lat1/lat2, shootout, scaling/scaling1k — the
// memory-scaling figures on the fat tree). Scale 1.0 runs the paper's
// full durations (slow); smaller scales compress simulated time
// proportionally.
//
// A figure's independent runs fan across -j workers and are reassembled
// in spec order, so output is byte-identical at any parallelism. With
// -cache DIR, run results are cached by a stable hash of each run's
// spec: re-rendering after changing one knob re-simulates only the runs
// whose spec changed. -no-cache bypasses the cache.
//
// With -trace, the figure's RECN run carries a flight recorder and its
// contents are exported as Chrome trace_event JSON — open the file at
// https://ui.perfetto.dev (or chrome://tracing). -trace-log and
// -trace-trees export the same recording as a plain-text event log and
// a congestion-tree lifecycle timeline.
//
// Ctrl-C (or SIGTERM) interrupts cleanly: in-flight runs stop at the
// next cancellation point and recnsim exits 130 without printing the
// interrupted figure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/prof"
)

// flagOf names the flag bound to each declarative option, keyed by the
// option's JSON name — the name Options.Validate reports and the sweep
// daemon's request body uses.
var flagOf = map[string]string{
	"figures":       "fig",
	"scale":         "scale",
	"packet_size":   "pkt",
	"max_rows":      "rows",
	"policies":      "policies",
	"fault_spec":    "faults",
	"throttle_spec": "throttle",
	"arn_spec":      "arn",
	"topo":          "topo",
	"shards":        "shards",
	"check":         "check",
	"no_cache":      "no-cache",
}

// bindOptions binds the option set's flags straight into opts.
func bindOptions(fs *flag.FlagSet, opts *repro.Options) {
	fs.Float64Var(&opts.Scale, "scale", 0.25, "time scale (1.0 = paper durations)")
	fs.IntVar(&opts.PacketSize, "pkt", 0, "packet size in bytes (default per figure)")
	fs.IntVar(&opts.MaxRows, "rows", 40, "max table rows")
	fs.Func("policies", "comma-separated mechanisms to run where the figure allows it, e.g. 'RECN,VOQnet' (default per figure)", func(s string) error {
		for _, name := range strings.Split(s, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			p, err := repro.ParsePolicy(name)
			if err != nil {
				return err
			}
			opts.Policies = append(opts.Policies, p)
		}
		return nil
	})
	fs.StringVar(&opts.FaultSpec, "faults", "", "fault-injection spec, e.g. 'seed=1,drop=token:2,droprate=credit:0.01,flap=0:4:100us:140us' (recovery watchdogs enabled; accounting printed in table notes)")
	fs.StringVar(&opts.ThrottleSpec, "throttle", "", "throttle policy tunables, e.g. 'mark=16384,min=100,dec=500,inc=50,period=5us,delay=500ns,cnp=1us' (defaults apply to omitted keys)")
	fs.StringVar(&opts.ARNSpec, "arn", "", "arn policy tunables, e.g. 'on=16384,off=4096' (hint hysteresis thresholds in bytes)")
	fs.StringVar(&opts.Topo, "topo", "", "network topology where the figure allows it: min, fattree, mesh (default per figure; 'list' prints the names and exits)")
	fs.IntVar(&opts.Shards, "shards", 0, "shard each simulation across this many cores (windowed runtime; output is identical at any value ≥ 1 but differs deterministically from the default serial engine, so sharded runs cache under their own key; 0 = serial)")
	fs.BoolVar(&opts.Check, "check", false, "enable the runtime invariant checker on every run (packet/credit conservation, SAQ lifecycle, deadlock/livelock); a violation aborts with a diagnostics snapshot; checked runs bypass the cache")
	fs.BoolVar(&opts.NoCache, "no-cache", false, "bypass the run-result cache")
	fs.IntVar(&opts.Parallelism, "j", runtime.GOMAXPROCS(0), "parallel simulation workers (≥ 1; output is identical at any setting)")
	fs.StringVar(&opts.CacheDir, "cache", "", "run-result cache directory (created if missing)")
}

// checkFlags rejects a bad option or combination before anything
// simulates, naming the offending flag.
func checkFlags(opts repro.Options, figures []string) error {
	if opts.Parallelism < 1 {
		return fmt.Errorf("-j %d: want at least 1 worker", opts.Parallelism)
	}
	if err := opts.Validate(figures...); err != nil {
		var oe *repro.OptionError
		if errors.As(err, &oe) {
			return fmt.Errorf("-%s: %w", flagOf[oe.Field], oe.Err)
		}
		return err
	}
	if opts.CacheDir != "" {
		if _, err := repro.OpenRunCache(opts.CacheDir); err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
	}
	return nil
}

func main() {
	var opts repro.Options
	bindOptions(flag.CommandLine, &opts)
	var (
		fig    = flag.String("fig", "", "figure/table ID to reproduce (see -list)")
		all    = flag.Bool("all", false, "reproduce everything")
		list   = flag.Bool("list", false, "list figure IDs")
		quiet  = flag.Bool("q", false, "suppress timing output")
		format = flag.String("format", "text", "output format: text or csv")
		counts = flag.String("counts", "", "comma-separated SAQ counts for -fig a1 (default 1,2,4,8,16)")
		kb     = flag.String("kb", "", "comma-separated detection thresholds in KB for -fig a2 (default 4,8,16,32,64)")

		traceOut    = flag.String("trace", "", "write the figure's flight recording as Chrome trace_event JSON (open in Perfetto)")
		traceLog    = flag.String("trace-log", "", "write the flight recording as a plain-text event log")
		traceTrees  = flag.String("trace-trees", "", "write the congestion-tree lifecycle timeline")
		traceEvents = flag.String("trace-events", "", "comma-separated event kinds to record, e.g. 'saq,token', 'tree', 'packet', 'all' (default all)")
		traceBuf    = flag.Int("trace-buf", 0, "flight-recorder ring capacity in events (default 65536)")
		traceBin    = flag.String("trace-bin", "", "metrics sampling period for counter tracks, e.g. '500ns' (default off)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit (pprof format)")
	)
	flag.Parse()

	// The listings are escape hatches: print and exit before anything
	// else (validation and profiling included) starts.
	switch {
	case *list:
		fmt.Println(strings.Join(repro.FigureIDs(), "\n"))
		return
	case opts.Topo == "list":
		fmt.Println(strings.ReplaceAll(repro.TopologyNames(), ", ", "\n"))
		return
	}
	var figures []string
	switch {
	case *all:
		figures = repro.FigureIDs()
	case *fig != "":
		figures = []string{strings.ToLower(*fig)}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err := checkFlags(opts, figures); err != nil {
		fatal(err)
	}
	// Custom ablation lists go through the experiment package's
	// list-taking entry points.
	reproduce := repro.Reproduce
	only := func(id string) bool { return len(figures) == 1 && figures[0] == id }
	if *counts != "" {
		if !only("a1") {
			fatal(fmt.Errorf("-counts needs -fig a1"))
		}
		list := parseInts("-counts", *counts, 1)
		reproduce = func(_ string, o repro.Options) ([]*repro.Table, error) { return repro.SweepSAQs(o, list) }
	}
	if *kb != "" {
		if !only("a2") {
			fatal(fmt.Errorf("-kb needs -fig a2"))
		}
		list := parseInts("-kb", *kb, 1024)
		reproduce = func(_ string, o repro.Options) ([]*repro.Table, error) { return repro.SweepThresholds(o, list) }
	}

	tracing := *traceOut != "" || *traceLog != "" || *traceTrees != ""
	var recorder *repro.TraceRecorder
	if tracing {
		if *all {
			fatal(fmt.Errorf("-trace needs a single figure: use -fig, not -all"))
		}
		cfg := repro.TraceConfig{BufferEvents: *traceBuf}
		if *traceEvents != "" {
			mask, err := repro.ParseTraceEvents(*traceEvents)
			if err != nil {
				fatal(err)
			}
			cfg.Events = mask
		}
		if *traceBin != "" {
			bin, err := repro.ParseTime(*traceBin)
			if err != nil {
				fatal(fmt.Errorf("-trace-bin: %w", err))
			}
			cfg.MetricsBin = bin
		}
		opts.Trace = &cfg
		// Keep the RECN run's recorder (the mechanism the trace
		// subsystem is about); otherwise the first run's.
		opts.OnTrace = func(label string, rec *repro.TraceRecorder) {
			if recorder == nil || label == repro.PolicyRECN.String() {
				recorder = rec
			}
		}
	} else if *traceEvents != "" || *traceBin != "" || *traceBuf != 0 {
		fatal(fmt.Errorf("-trace-events/-trace-bin/-trace-buf need an output: set -trace, -trace-log or -trace-trees"))
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	// Ctrl-C/SIGTERM cancels the sweep context: workers stop picking up
	// runs, in-flight serial runs stop at the next engine chunk, and the
	// figure returns ErrCanceled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	opts.Context = ctx
	// A failed cache write does not fail a figure (the result is fresh
	// and correct), but it must not pass silently either: without the
	// warning a full disk or revoked permission would quietly
	// re-simulate everything on every future invocation.
	opts.OnCacheSummary = func(s repro.CacheSummary) {
		if s.StoreFailures > 0 {
			fmt.Fprintf(os.Stderr, "recnsim: warning: %d cache write(s) failed (first: %v); results are correct but will re-simulate next time\n",
				s.StoreFailures, s.FirstStoreErr)
		}
	}

	for _, id := range figures {
		start := time.Now()
		tables, err := reproduce(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "recnsim: %s: %v\n", id, err)
			if errors.Is(err, repro.ErrCanceled) {
				os.Exit(130) // the conventional 128+SIGINT code
			}
			os.Exit(1)
		}
		for _, t := range tables {
			if *format == "csv" {
				if err := t.FprintCSV(os.Stdout); err != nil {
					fatal(err)
				}
			} else {
				t.Fprint(os.Stdout)
			}
			fmt.Println()
		}
		if !*quiet {
			fmt.Printf("# %s done in %v (scale %.2f)\n\n", id, time.Since(start).Round(time.Millisecond), opts.Scale)
		}
	}
	if tracing {
		if recorder == nil {
			fatal(fmt.Errorf("figure %s has no traceable simulation runs", *fig))
		}
		writeTrace(recorder, *traceOut, *traceLog, *traceTrees, *quiet)
	}
}

// writeTrace exports the captured flight recording in every requested
// format.
func writeTrace(rec *repro.TraceRecorder, chrome, log, trees string, quiet bool) {
	type export struct {
		path  string
		write func(w io.Writer) error
		what  string
	}
	for _, e := range []export{
		{chrome, rec.WriteChromeTrace, "Chrome trace (open in Perfetto)"},
		{log, rec.WriteText, "event log"},
		{trees, rec.WriteTrees, "congestion-tree timeline"},
	} {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			fatal(err)
		}
		if err := e.write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if !quiet {
			fmt.Printf("# wrote %s to %s\n", e.what, e.path)
		}
	}
	if !quiet {
		fmt.Printf("# trace: %d events recorded, %d overwritten, %d congestion trees\n",
			rec.Total(), rec.Overwritten(), len(rec.Trees()))
	}
}

// parseInts reads a comma-separated list of positive integers, each
// scaled by mult.
func parseInts(name, s string, mult int) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("%s: bad value %q (want positive integers)", name, part))
		}
		out = append(out, v*mult)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recnsim:", err)
	os.Exit(1)
}
