package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/cam"
	"repro/internal/mempool"
	"repro/internal/pkt"
	"repro/internal/recn"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Micro timings: single public calls of each layer, timed in loops from
// outside. They apportion fabric.run's self time (engine, queues, CAM
// and RECN internals the harness has no span inside) and the warm
// request's (cache, restore, render). They do not depend on the
// workload; every traced run repeats them so its record stands alone.
// README.md says which end-to-end metric each should move.

const (
	// microBatch is the least time one batch of calls is timed for, and
	// a timing is the median of microBatches batches. The issue asked
	// for 200 ms × 5; the driver's budget for a traced run allows a
	// tenth of that for thirty timings.
	microBatch   = 20 * time.Millisecond
	microBatches = 5
)

// sink keeps the compiler from discarding a timed call's result.
var sink int

// timeCalls returns the ns one call of op takes: op(n) makes n calls.
func timeCalls(op func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		op(n)
		if d := time.Since(t0); d >= microBatch {
			break
		} else if d < microBatch/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	per := make([]float64, microBatches)
	for i := range per {
		t0 := time.Now()
		op(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// each adapts a single call to timeCalls.
func each(call func()) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			call()
		}
	}
}

// microTimings measures every workload-independent per-layer metric.
func microTimings() (map[string]float64, error) {
	m := map[string]float64{}

	// sim: the hold model (schedule one event, dispatch one) at a
	// standing queue depth. The observed depth is ~1000 at 64 hosts and
	// 600–3400 at 4096; 1e4 and 1e6 are headroom no workload reaches.
	for _, d := range []struct {
		name  string
		depth int
	}{{"d1e3", 1e3}, {"d1e4", 1e4}, {"d1e6", 1e6}} {
		m["sim.hold_ns."+d.name] = holdNs(d.depth)
	}
	m["sim.step_ns.k2"] = stepNs(2)

	// mempool: one packet through a queue, as every hop does twice.
	pool := mempool.NewPool(1 << 20)
	q := mempool.NewQueue(pool, 0)
	m["mempool.push_pop_ns"] = timeCalls(each(func() {
		q.Push(64, nil)
		sink += q.Pop().Size
		q.ReleaseResident(64)
	}))

	// cam, pkt: a CAM with all eight lines valid, matched by a route
	// that crosses the longest of them.
	route := pkt.Route{4, 5, 6, 1, 2}
	table := cam.New(8)
	for _, p := range eightPaths(route) {
		table.Allocate(p)
	}
	m["cam.match_ns.l8"] = timeCalls(each(func() {
		id, _ := table.Match(route, 0)
		sink += id
	}))
	small := cam.New(8)
	m["cam.alloc_free_ns"] = timeCalls(each(func() {
		id, _ := small.Allocate(pkt.PathOf(4, 5))
		small.Free(id)
	}))
	m["pkt.pack_route_ns"] = timeCalls(each(func() {
		pr := pkt.PackRoute(route, 1)
		if pkt.PathOf(5, 6).MatchesPacked(pr) {
			sink++
		}
	}))

	// recn: classification of an arriving packet with no SAQ allocated
	// (every packet, every phase) and with all eight (tree alive).
	in0 := recn.NewIngress(recn.DefaultConfig(), 0, pool, []*mempool.Queue{mempool.NewQueue(pool, 0)}, stubEffects{})
	in8 := recn.NewIngress(recn.DefaultConfig(), 0, pool, []*mempool.Queue{mempool.NewQueue(pool, 0)}, stubEffects{})
	eg8 := recn.NewEgress(recn.DefaultConfig(), 0, pool, []*mempool.Queue{mempool.NewQueue(pool, 0)}, false, stubEffects{})
	for _, p := range eightPaths(route) {
		if !in8.OnNotifyLocal(p) {
			return nil, fmt.Errorf("micro: ingress refused SAQ for %v", p)
		}
		eg8.OnUpstreamNotification(p)
	}
	if in8.ActiveSAQs() != 8 || eg8.ActiveSAQs() != 8 {
		return nil, fmt.Errorf("micro: %d ingress and %d egress SAQs, want 8 each", in8.ActiveSAQs(), eg8.ActiveSAQs())
	}
	classify := func(f func(pkt.Route, int) *recn.SAQ) float64 {
		return timeCalls(each(func() {
			if f(route, 0) != nil {
				sink++
			}
		}))
	}
	m["recn.ingress_classify_ns.s0"] = classify(in0.Classify)
	m["recn.ingress_classify_ns.s8"] = classify(in8.Classify)
	m["recn.egress_classify_ns.s8"] = classify(eg8.Classify)

	// topology: one source route, as every injected message computes.
	min64, err := topology.ForHosts(64)
	if err != nil {
		return nil, err
	}
	fat4k, err := topology.NewFatTree(4096)
	if err != nil {
		return nil, err
	}
	m["topology.route_ns.min64"] = routeNs(64, min64.Route)
	m["topology.route_ns.fattree4k"] = routeNs(4096, fat4k.Route)

	// stats: the two meters every delivery feeds.
	tp, err := stats.NewThroughput(sim.Microsecond)
	if err != nil {
		return nil, err
	}
	var now sim.Time
	m["stats.throughput_add_ns"] = timeCalls(each(func() {
		now += 40 * sim.Nanosecond
		tp.Add(now%(200*sim.Microsecond), 64)
	}))
	lat := stats.NewLatency()
	m["stats.latency_add_ns"] = timeCalls(each(func() {
		now += 7 * sim.Nanosecond
		lat.Add(sim.Microsecond + now%(50*sim.Microsecond))
	}))

	if err := cacheTimings(m); err != nil {
		return nil, err
	}
	return m, nil
}

// holdNs times ScheduleArg + dispatch with depth events pending: every
// event reschedules itself a pseudo-random interval ahead, so the queue
// holds its depth while Run dispatches.
func holdNs(depth int) float64 {
	eng := sim.NewEngine()
	rng := uint64(88172645463325252)
	next := func() sim.Time { // xorshift64: cheap against the heap work
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return sim.Time(rng%uint64(2*sim.Microsecond)) + 1
	}
	left := 0
	var fire func(any)
	fire = func(arg any) {
		if left--; left == 0 {
			eng.Stop()
		}
		eng.ScheduleArg(eng.Now()+next(), fire, arg)
	}
	for i := 0; i < depth; i++ {
		eng.ScheduleArg(next(), fire, nil)
	}
	return timeCalls(func(n int) {
		left = n
		eng.Run(sim.MaxShardTime)
	})
}

// stepNs times one window barrier of k idle shard engines: the
// goroutine hand-off a windowed run pays per link-latency window.
func stepNs(k int) float64 {
	engines := make([]*sim.Engine, k)
	for i := range engines {
		engines[i] = sim.NewShardEngine()
	}
	g := sim.NewShardGroup(engines)
	defer g.Close()
	var at sim.Time
	return timeCalls(each(func() {
		at += 20 * sim.Nanosecond
		g.Step(at)
	}))
}

func routeNs(hosts int, route func(src, dst int) (pkt.Route, error)) float64 {
	src := 0
	return timeCalls(each(func() {
		src = (src + 37) % hosts
		r, _ := route(src, (src+hosts/2+1)%hosts)
		sink += len(r)
	}))
}

// eightPaths returns eight distinct CAM paths; the last is a prefix of
// route, so a match scans every line and hits.
func eightPaths(route pkt.Route) []pkt.Path {
	paths := make([]pkt.Path, 0, 8)
	for i := 0; i < 7; i++ {
		paths = append(paths, pkt.PathOf(pkt.Turn(i), 7, 7))
	}
	return append(paths, pkt.PathFromRoute(route, 0, 3))
}

// stubEffects absorbs the RECN controllers' outputs.
type stubEffects struct{}

func (stubEffects) SendUpstream(recn.CtlMsg)           {}
func (stubEffects) TokenToEgress(int, pkt.Path)        {}
func (stubEffects) NotifyIngress(int, pkt.Path) bool   { return true }
func (stubEffects) SendTokenDownstream(pkt.Path, bool) {}

// cacheTimings measures the layers under a warm request without HTTP:
// storing and loading a run, the report round trip, rendering, and the
// library's fully cached Reproduce of the figure the daemon serves.
func cacheTimings(m map[string]float64) error {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "micro-")
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(tmpRoot)
	}()
	cache, err := repro.OpenRunCache(dir)
	if err != nil {
		return err
	}
	// The cost of the warm path does not depend on how long the cached
	// runs simulated (a report has 160 bins at any horizon), so the
	// cache is filled at the smallest scale that still forms trees.
	opts := repro.Options{Scale: 0.02, Cache: cache, Parallelism: 2}
	tables, err := repro.Reproduce("2b", opts)
	if err != nil {
		return err
	}
	// The timed calls touch the disk; the first error any of them meets
	// fails the timings instead of being timed.
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	m["experiments.sweep_warm_ms"] = timeCalls(each(func() {
		_, err := repro.Reproduce("2b", opts)
		note(err)
	})) / 1e6
	m["experiments.render_us"] = timeCalls(each(func() {
		repro.FprintTables(io.Discard, tables)
	})) / 1e3

	// One real result to store, load and round-trip: the corner case's
	// RECN run at the same small scale.
	shape := simShape{hosts: 64, topo: "min", scale: 0.02, figureSeed: 1}
	spec, err := shape.spec(0)
	if err != nil {
		return err
	}
	run := spec.run()
	res, err := run.Execute()
	if err != nil {
		return err
	}
	m["stats.report_roundtrip_us"] = timeCalls(each(func() {
		raw, err := json.Marshal(res.Report())
		note(err)
		var rep stats.Report
		note(json.Unmarshal(raw, &rep))
		_, err = repro.ResultFromReport(run.Policy, rep)
		note(err)
	})) / 1e3
	// Store skips a spec that is already cached, so every timed store
	// gets a key of its own.
	seq := 0
	m["experiments.cache_store_us"] = timeCalls(each(func() {
		seq++
		r := run
		r.Key = fmt.Sprintf("bench|%d", seq)
		note(cache.Store(r, res))
	})) / 1e3
	run.Key = "bench|1"
	m["experiments.cache_load_us"] = timeCalls(each(func() {
		if _, ok := cache.Load(run); !ok {
			note(fmt.Errorf("micro: cache miss on a stored run"))
		}
	})) / 1e3
	return failed
}
