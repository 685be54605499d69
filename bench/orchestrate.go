package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// metricDef is one metric as BENCHMARK.json declares it. bound is the
// share of the parent's median an end-to-end metric may worsen by; the
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees. The driver's contract
// wants every end-to-end metric from every workload, so each is defined
// on all five (README.md has the per-workload reading); the daemon's
// request percentiles and cold-job time, which only served has, are
// per-layer server.* metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.12},
	{"latency_p50_ms", "ms", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer is every layer metric, in module order. A layer a workload
// bypasses reports 0: no work was done and no time spent there.
var perLayer = []metricDef{
	{name: "sim.hold_ns.d1e3", unit: "ns", better: "lower"},
	{name: "sim.hold_ns.d1e4", unit: "ns", better: "lower"},
	{name: "sim.hold_ns.d1e6", unit: "ns", better: "lower"},
	{name: "sim.step_ns.k2", unit: "ns", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.pending_peak", unit: "count", better: "lower"},
	{name: "mempool.push_pop_ns", unit: "ns", better: "lower"},
	{name: "cam.match_ns.l8", unit: "ns", better: "lower"},
	{name: "cam.alloc_free_ns", unit: "ns", better: "lower"},
	{name: "pkt.pack_route_ns", unit: "ns", better: "lower"},
	{name: "recn.ingress_classify_ns.s0", unit: "ns", better: "lower"},
	{name: "recn.ingress_classify_ns.s8", unit: "ns", better: "lower"},
	{name: "recn.egress_classify_ns.s8", unit: "ns", better: "lower"},
	{name: "recn.saq_peak", unit: "count", better: "lower"},
	{name: "recn.allocs", unit: "count", better: "lower"},
	{name: "topology.route_ns.min64", unit: "ns", better: "lower"},
	{name: "topology.route_ns.fattree4k", unit: "ns", better: "lower"},
	{name: "topology.build_s", unit: "s", better: "lower"},
	{name: "traffic.install_s", unit: "s", better: "lower"},
	{name: "traffic.gen_share", unit: "share", better: "lower"},
	{name: "traffic.gen_ns", unit: "ns", better: "lower"},
	{name: "fabric.new_s", unit: "s", better: "lower"},
	{name: "fabric.shard_s", unit: "s", better: "lower"},
	{name: "fabric.warmup_s", unit: "s", better: "lower"},
	{name: "fabric.run_s", unit: "s", better: "lower"},
	{name: "fabric.run_self_share", unit: "share", better: "lower"},
	{name: "fabric.inject_share", unit: "share", better: "lower"},
	{name: "fabric.inject_ns", unit: "ns", better: "lower"},
	{name: "fabric.injects", unit: "count", better: "lower"},
	{name: "fabric.saq_usage_share", unit: "share", better: "lower"},
	{name: "fabric.saq_usage_us", unit: "us", better: "lower"},
	{name: "fabric.events_per_s.pre", unit: "1/s", better: "higher"},
	{name: "fabric.events_per_s.hot", unit: "1/s", better: "higher"},
	{name: "fabric.events_per_s.post", unit: "1/s", better: "higher"},
	{name: "fabric.events_per_s.s1", unit: "1/s", better: "higher"},
	{name: "fabric.delivered_pkts", unit: "count", better: "higher"},
	{name: "fabric.events_per_pkt", unit: "count", better: "lower"},
	{name: "fabric.state_kb", unit: "KB", better: "lower"},
	{name: "fabric.mallocs_per_kevent", unit: "count", better: "lower"},
	{name: "fabric.tput_bns", unit: "B/ns", better: "higher"},
	{name: "stats.throughput_add_ns", unit: "ns", better: "lower"},
	{name: "stats.latency_add_ns", unit: "ns", better: "lower"},
	{name: "stats.deliver_share", unit: "share", better: "lower"},
	{name: "stats.deliver_ns", unit: "ns", better: "lower"},
	{name: "stats.report_roundtrip_us", unit: "us", better: "lower"},
	{name: "experiments.cache_store_us", unit: "us", better: "lower"},
	{name: "experiments.cache_load_us", unit: "us", better: "lower"},
	{name: "experiments.render_us", unit: "us", better: "lower"},
	{name: "experiments.sweep_warm_ms", unit: "ms", better: "lower"},
	{name: "server.start_s", unit: "s", better: "lower"},
	{name: "server.cold_job_s", unit: "s", better: "lower"},
	{name: "server.cold_events", unit: "count", better: "lower"},
	{name: "server.req_per_s", unit: "1/s", better: "higher"},
	{name: "server.req_p50_ms", unit: "ms", better: "lower"},
	{name: "server.req_p99_ms", unit: "ms", better: "lower"},
	{name: "server.submit_ms", unit: "ms", better: "lower"},
	{name: "server.wait_ms", unit: "ms", better: "lower"},
	{name: "server.results_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.retained_kb_per_job", unit: "KB", better: "lower"},
	{name: "harness.setup_self_s", unit: "s", better: "lower"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one benchmark run of one workload: what the driver reads
// from the last line of standard output (Correct, Attempted, Failed,
// Metrics), and beside it what -agree and a reader need.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Digest and Counts repeat exactly between runs of one commit.
	Digest string            `json:"digest"`
	Counts map[string]uint64 `json:"counts"`
	Errors []string          `json:"errors,omitempty"`
	// Reps are the repetitions the medians were taken over, with the
	// spans and slices of the traced ones.
	Reps    []childRecord `json:"reps"`
	Machine machine       `json:"machine"`
}

const (
	minReps = 3
	maxReps = 6
)

// spawn runs one repetition in a fresh child of this binary. A child
// that dies is a failed operation, not a failed benchmark.
func spawn(name string, seed int64, traced bool, shards int) childRecord {
	rec := childRecord{Workload: name, Seed: seed, Traced: traced}
	lost := func(err error, stderr []byte) childRecord {
		rec.Attempted, rec.Failed = 1, 1
		rec.Error = fmt.Sprintf("child: %v: %s", err, bytes.TrimSpace(stderr))
		return rec
	}
	exe, err := os.Executable()
	if err != nil {
		return lost(err, nil)
	}
	args := []string{"-child", name, "-seed", strconv.FormatInt(seed, 10), "-child-shards", strconv.Itoa(shards)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	// At most two busy threads, whatever the machine: the numbers are
	// for the 2-core shape the ledger is kept on.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(2, runtime.NumCPU())))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return lost(err, stderr.Bytes())
	}
	if err := json.Unmarshal(out, &rec); err != nil {
		return lost(fmt.Errorf("unreadable record: %w", err), out)
	}
	return rec
}

// measure is one benchmark run of one workload.
//
// Untraced, it repeats the workload in fresh children until their timed
// regions add up to `seconds` (at least minReps times) and reports the
// median of each end-to-end metric. Traced, it runs one untraced and
// one traced repetition (their digests must be equal: tracing is a pure
// observer, and their rates give the tracing overhead) plus the micro
// timings, and reports every per-layer metric.
func measure(w workload, seed int64, seconds int, traced bool) result {
	res := result{Workload: w.name, Seed: seed, Metrics: map[string]metric{}, Machine: fingerprint()}
	windowed := w.sim != nil && w.sim.shards > 1
	if windowed && runtime.NumCPU() < 2 {
		// A windowed run on one core would record another single-core
		// curve under a multi-core name.
		res.Attempted, res.Failed = 1, 1
		res.Errors = []string{"windowed workloads need NumCPU ≥ 2"}
		return res
	}
	add := func(rec childRecord) {
		res.Reps = append(res.Reps, rec)
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		if rec.Error != "" {
			res.Errors = append(res.Errors, rec.Error)
		}
	}
	if !traced {
		timed := 0.0
		for n := 0; n < maxReps && (n < minReps || timed < float64(seconds)); n++ {
			rec := spawn(w.name, seed, false, -1)
			add(rec)
			timed += rec.TimedS
			if rec.Failed == rec.Attempted {
				break // nothing ran: repeating it measures nothing
			}
		}
		res.endToEnd()
	} else {
		res.Trace = 1
		add(spawn(w.name, seed, false, -1))
		add(spawn(w.name, seed, true, -1))
		var s1 *childRecord
		if windowed {
			// The same spec on one shard: item 2's gate beside the
			// serial and two-shard end-to-end points, and its digest
			// must equal the two-shard one.
			rec := spawn(w.name, seed, false, 1)
			add(rec)
			s1 = &rec
		}
		micro, err := microTimings()
		if err != nil {
			res.Attempted++
			res.Failed++
			res.Errors = append(res.Errors, err.Error())
		}
		res.perLayer(micro, s1)
	}
	res.Digest, res.Counts = res.Reps[0].Digest, res.Reps[0].Counts
	for _, rec := range res.Reps[1:] {
		if rec.Error == "" && (rec.Digest != res.Digest || !sameCounts(rec.Counts, res.Counts)) {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("digest %s (counts %v) differs from the first repetition's %s (%v)",
				rec.Digest, rec.Counts, res.Digest, res.Counts))
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func sameCounts(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// endToEnd takes the median of each end-to-end metric over the
// repetitions that completed.
func (r *result) endToEnd() {
	vals := map[string][]float64{}
	for _, rec := range r.Reps {
		if rec.TimedS <= 0 {
			continue
		}
		for name, v := range map[string]float64{
			"setup_s":        rec.SetupS,
			"work_per_s":     float64(rec.Work) / rec.TimedS,
			"latency_p50_ms": rec.LatencyMs,
			"peak_rss_mb":    rec.PeakRSSMB,
		} {
			vals[name] = append(vals[name], v)
		}
	}
	for _, d := range endToEnd {
		r.Metrics[d.name] = metric{median(vals[d.name]), d.unit}
	}
}

// perLayer assembles every per-layer metric of a traced run: what the
// traced repetition measured on the workload, the micro timings, and
// the few that combine the two.
func (r *result) perLayer(micro map[string]float64, s1 *childRecord) {
	untraced, traced := r.Reps[0], r.Reps[1]
	vals := map[string]float64{}
	for k, v := range micro {
		vals[k] = v
	}
	for k, v := range traced.Layer {
		vals[k] = v
	}
	if untraced.TimedS > 0 && traced.TimedS > 0 {
		u, t := float64(untraced.Work)/untraced.TimedS, float64(traced.Work)/traced.TimedS
		vals["harness.trace_overhead_pct"] = 100 * (u - t) / u
	}
	if s1 != nil && s1.TimedS > 0 {
		vals["fabric.events_per_s.s1"] = float64(s1.Work) / s1.TimedS
	}
	if p50, ok := vals["server.req_p50_ms"]; ok {
		vals["server.self_ms"] = p50 - vals["experiments.sweep_warm_ms"]
	}
	for _, d := range perLayer {
		r.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
}

// contractLine is the last line of standard output: exactly the keys
// the driver reads.
func (r result) contractLine() string {
	raw, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(1, r.Attempted), r.Failed, r.Metrics})
	if err != nil {
		panic(err) // NaN or Inf in a metric: a harness bug
	}
	return string(raw)
}

// report prints a result for a reader, on standard error.
func (r result) report() {
	w := os.Stderr
	fmt.Fprintf(w, "== %s  seed %d  trace %d  %d/%d operations failed  digest %.16s\n",
		r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted, r.Digest)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "   %-32s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if r.Trace == 0 {
		for i, rec := range r.Reps {
			fmt.Fprintf(w, "   rep %d: setup %.3fs  timed %.3fs  work %d  rss %.1f MB\n", i+1, rec.SetupS, rec.TimedS, rec.Work, rec.PeakRSSMB)
		}
	}
}

func writeSet(path string, set []result) error {
	if path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runOne is the driver's entry: one workload, one mode, the contract
// line last on standard output.
func runOne(name string, seed int64, seconds int, traced bool, out string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res := measure(w, seed, seconds, traced)
	res.report()
	if err := writeSet(out, []result{res}); err != nil {
		return err
	}
	fmt.Println(res.contractLine())
	return nil
}

// runAll measures every workload untraced and traced: one command that
// prints every metric by name and unit and counts failed operations.
func runAll(seed int64, seconds int, out string) error {
	var set []result
	failed := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := measure(w, seed, seconds, traced)
			res.report()
			failed += res.Failed
			set = append(set, res)
		}
	}
	if err := writeSet(out, set); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Println("  " + w.name)
	}
	fmt.Println("end-to-end metrics (-trace 0):")
	for _, d := range endToEnd {
		fmt.Printf("  %-32s %-6s %s is better, bound %.0f%%\n", d.name, d.unit, d.better, 100*d.bound)
	}
	fmt.Println("per-layer metrics (-trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-32s %-6s %s is better\n", d.name, d.unit, d.better)
	}
}
