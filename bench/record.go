package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// childRecord is what one repetition (one freshly exec'd child) reports
// to the parent: the raw measurements of one operation, never medians.
type childRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Error is why the repetition's operation failed ("" = it passed
	// every check).
	Error     string `json:"error,omitempty"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`

	// SetupS is wall time from process start to the first timed
	// operation; TimedS is the timed region; Work is what completed in
	// it (simulated events, or warm requests).
	SetupS float64 `json:"setup_s"`
	TimedS float64 `json:"timed_s"`
	Work   uint64  `json:"work"`
	// LatencyMs is the median wall time of one timed operation: the
	// whole timed region on a simulator workload, one warm request on
	// served.
	LatencyMs float64 `json:"latency_ms"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Digest and Counts repeat exactly between runs of one commit.
	Digest string            `json:"digest"`
	Counts map[string]uint64 `json:"counts"`

	// Layer holds the per-layer metrics this repetition measured, and
	// Spans/Slices the trace they were derived from (traced only).
	Layer  map[string]float64 `json:"layer,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	Slices []sliceRec         `json:"slices,omitempty"`
}

// peakRSSMB is this process's peak resident set. It reads VmHWM, the
// high-water mark of the address space exec gave this child, and not
// ru_maxrss: Linux seeds a child's ru_maxrss with the peak of the
// parent it was forked from, so a parent that has grown (after its
// micro timings) would show through in every later child.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// simChild runs one simulator operation in this process.
func simChild(w workload, seed int64, traced bool, shards int) childRecord {
	rec := childRecord{Attempted: 1}
	fail := func(err error) childRecord {
		rec.Failed, rec.Error = 1, err.Error()
		return rec
	}
	shape := *w.sim
	if shards >= 0 {
		shape.shards = shards
	}
	spec, err := shape.spec(seed)
	if err != nil {
		return fail(err)
	}
	var tr *tracer
	if traced {
		tr = newTracer(processStart)
	}
	out, err := execute(spec, tr, processStart)
	rec.SetupS, rec.TimedS, rec.Work = out.setupS, out.timedS, out.events
	rec.LatencyMs = out.timedS * 1e3
	rec.Digest = out.res.digest()
	rec.Counts = map[string]uint64{
		"injected":  out.res.Injected,
		"delivered": out.res.Delivered,
		"events":    out.res.Events,
		"allocs":    out.recn.allocs,
		"saq_peak":  uint64(out.recn.peakSAQs),
		"state_kb":  uint64(out.stateKB),
	}
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		if rec.Layer, err = simLayer(spec, tr, out); err != nil {
			return fail(err)
		}
		rec.Spans, rec.Slices = tr.spans, tr.slices
	}
	return rec
}

// simLayer derives the per-layer metrics of one traced simulator run
// from its spans, slot aggregates and slice samples.
func simLayer(spec simSpec, tr *tracer, o simOutcome) (map[string]float64, error) {
	threads := max(1, spec.shards)
	c := tr.totals()
	setupSelf, runSelf, err := selfTimes(tr.spans, c, threads)
	if err != nil {
		return nil, err
	}
	threadS := float64(threads) * o.timedS
	share := func(ns int64) float64 { return float64(ns) / 1e9 / threadS }
	perCall := func(a callAgg) float64 {
		if a.N == 0 {
			return 0
		}
		return float64(a.Ns) / float64(a.N)
	}
	genSelf := callAgg{N: c.Gen.N, Ns: c.Gen.Ns - c.Inject.Ns}

	first, last := tr.slices[0], tr.slices[len(tr.slices)-1]
	delivered := last.Delivered - first.Delivered
	peak := 0
	for _, s := range tr.slices {
		peak = max(peak, s.Pending)
	}
	m := map[string]float64{
		"topology.build_s":          dur(tr.spans, "topology.build"),
		"fabric.new_s":              dur(tr.spans, "fabric.new"),
		"fabric.shard_s":            dur(tr.spans, "fabric.shard"),
		"traffic.install_s":         dur(tr.spans, "traffic.install"),
		"fabric.warmup_s":           dur(tr.spans, "fabric.warmup"),
		"harness.setup_self_s":      setupSelf,
		"fabric.run_s":              o.timedS,
		"fabric.run_self_share":     runSelf / threadS,
		"traffic.gen_share":         share(genSelf.Ns),
		"traffic.gen_ns":            perCall(genSelf),
		"fabric.inject_share":       share(c.Inject.Ns),
		"fabric.inject_ns":          perCall(c.Inject),
		"stats.deliver_share":       share(c.Deliver.Ns),
		"stats.deliver_ns":          perCall(c.Deliver),
		"fabric.saq_usage_share":    float64(c.SAQUsage.Ns) / 1e9 / o.timedS,
		"fabric.saq_usage_us":       perCall(c.SAQUsage) / 1e3,
		"sim.events":                float64(o.events),
		"sim.pending_peak":          float64(peak),
		"recn.saq_peak":             float64(o.recn.peakSAQs),
		"recn.allocs":               float64(o.recn.allocs),
		"fabric.injects":            float64(c.Inject.N),
		"fabric.delivered_pkts":     float64(delivered),
		"fabric.events_per_pkt":     float64(o.events) / float64(max(1, delivered)),
		"fabric.state_kb":           o.stateKB,
		"fabric.mallocs_per_kevent": float64(tr.mallocs) / (float64(o.events) / 1e3),
	}
	_, m["fabric.tput_bns"] = phaseRates(o.res.Throughput, spec.corner)
	for phase, rate := range phaseEventRates(tr.slices, spec) {
		m["fabric.events_per_s."+phase] = rate
	}
	return m, nil
}

// phaseEventRates splits the timed region's event rate by hotspot
// phase: before it, while its sources inject, and after. A phase the
// timed region never enters (the warm-up of the scaling workloads ends
// inside the hotspot) reports 0.
func phaseEventRates(slices []sliceRec, spec simSpec) map[string]float64 {
	type acc struct {
		events uint64
		ns     int64
	}
	var pre, hot, post acc
	for i := 1; i < len(slices); i++ {
		a := &post
		switch end := slices[i].At; {
		case end <= spec.corner.HotStart:
			a = &pre
		case end <= spec.corner.HotEnd:
			a = &hot
		}
		a.events += slices[i].Events - slices[i-1].Events
		a.ns += slices[i].WallNs - slices[i-1].WallNs
	}
	rate := func(a acc) float64 {
		if a.ns == 0 {
			return 0
		}
		return float64(a.events) / (float64(a.ns) / 1e9)
	}
	return map[string]float64{"pre": rate(pre), "hot": rate(hot), "post": rate(post)}
}
