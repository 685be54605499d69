package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/fabric"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// simRun is one hand-wired simulation: the same construction, meters,
// SAQ sampler and traffic adapter experiments.Run.Execute wires, taken
// apart so the harness can time each step from outside, split the
// horizon into warm-up and timed slices, and (traced) wrap its own
// callbacks. equiv_test.go holds it event-for-event equal to Execute.
type simRun struct {
	spec simSpec
	net  *fabric.Network
	tr   *tracer // nil when untraced

	tp  *stats.Throughput
	lat *stats.Latency
	saq *stats.SAQSeries
	// Per-shard delivery meters of a windowed run (each written by its
	// shard's goroutine only), merged into tp/lat by finish.
	shardTP  []*stats.Throughput
	shardLat []*stats.Latency
	// injectErr holds the first injection error per host view (a
	// host's stream runs on one goroutine, so the slots need no lock)
	// and, in the last slot, of the adapter's own coordinator-side
	// Inject.
	injectErr []error
}

// simResult is what a finished run is judged and digested on.
type simResult struct {
	Injected, Delivered, Events uint64
	OrderViolations             uint64
	Throughput                  stats.ThroughputDump
	Latency                     stats.LatencyDump
	SAQ                         stats.SAQDump
}

// digest is the SHA-256 the issue asks for: over the packet and event
// counts (order violations too) and the three meter dumps. It is not a committed golden, but
// must repeat exactly between runs of one commit, traced or not.
func (r simResult) digest() string {
	raw, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain structs of scalars, slices and an int-keyed map
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// setup builds the fabric and installs meters, sampler and traffic:
// everything before the first simulated event. The run it returns is
// the caller's to release, also beside an error.
func setup(spec simSpec, tr *tracer) (*simRun, error) {
	r := &simRun{spec: spec, tr: tr}
	run := spec.run()

	done := tr.span("topology.build")
	cfg, err := run.Config()
	done()
	if err != nil {
		return r, err
	}

	done = tr.span("fabric.new")
	r.net, err = fabric.New(cfg)
	done()
	if err != nil {
		return r, err
	}

	if spec.shards > 0 {
		done = tr.span("fabric.shard")
		_, err = r.net.Shard(spec.shards)
		done()
		if err != nil {
			return r, err
		}
	}
	tr.bind(r.net)

	done = tr.span("traffic.install")
	defer done()
	if r.tp, err = stats.NewThroughput(run.Bin); err != nil {
		return r, err
	}
	if r.saq, err = stats.NewSAQSeries(run.Bin); err != nil {
		return r, err
	}
	r.lat = stats.NewLatency()
	net := r.net
	if k := net.ShardCount(); k > 0 {
		r.shardTP = make([]*stats.Throughput, k)
		r.shardLat = make([]*stats.Latency, k)
		for i := 0; i < k; i++ {
			stp, err := stats.NewThroughput(run.Bin)
			if err != nil {
				return r, err
			}
			lat := stats.NewLatency()
			r.shardTP[i], r.shardLat[i] = stp, lat
			eng := net.ShardEngine(i)
			net.SetShardOnDeliver(i, tr.wrapDeliver(i, func(p *pkt.Packet) {
				now := eng.Now()
				stp.Add(now, p.Size)
				lat.Add(now - p.CreatedAt)
			}))
		}
	} else {
		net.OnDeliver = tr.wrapDeliver(0, func(p *pkt.Packet) {
			now := net.Engine.Now()
			r.tp.Add(now, p.Size)
			r.lat.Add(now - p.CreatedAt)
		})
	}

	// The SAQ sampler runs on the coordinator engine in both runtimes,
	// four times per bin, as Execute's does.
	period := run.Bin / 4
	if period <= 0 {
		period = run.Bin
	}
	usage := tr.wrapSAQUsage(net.SAQUsage)
	var sample func()
	sample = func() {
		total, maxIn, maxEg := usage()
		r.saq.Observe(net.Engine.Now(), stats.SAQSample{Total: total, MaxIngress: maxIn, MaxEgress: maxEg})
		if net.Engine.Now() < run.Until {
			net.Engine.After(period, sample)
		}
	}
	net.Engine.Schedule(0, sample)

	r.injectErr = make([]error, spec.hosts+1)
	return r, spec.corner.Install(benchAdapter{r})
}

// advance runs the simulation through `at` on whichever runtime the
// spec selects. Calling it at increasing times dispatches exactly the
// events one call to the last time would.
func (r *simRun) advance(at sim.Time) {
	if r.net.ShardCount() > 0 {
		r.net.RunWindowed(at)
	} else {
		r.net.Engine.Run(at)
	}
}

// release frees the shard goroutines; safe on every path and twice.
func (r *simRun) release() {
	if r.net != nil && r.net.ShardCount() > 0 {
		r.net.FinishWindowed()
	}
}

// finish ends the run at the horizon and collects what it measured.
func (r *simRun) finish() (simResult, error) {
	r.release()
	for _, err := range r.injectErr {
		if err != nil {
			return simResult{}, fmt.Errorf("workload injection: %w", err)
		}
	}
	for i := range r.shardTP {
		if err := r.tp.Merge(r.shardTP[i]); err != nil {
			return simResult{}, err
		}
		r.lat.Merge(r.shardLat[i])
	}
	n := r.net
	return simResult{
		Injected: n.InjectedPackets, Delivered: n.DeliveredPackets, Events: n.TotalEvents(),
		OrderViolations: n.OrderViolations,
		Throughput:      r.tp.Dump(), Latency: r.lat.Dump(), SAQ: r.saq.Dump(),
	}, nil
}

// timedSlices is how many Engine.Run / RunWindowed calls the timed
// region is cut into, before the cuts at the hotspot's start and end.
const timedSlices = 100

// cuts returns the ascending times the timed region stops at: an even
// grid of timedSlices slices from the warm-up boundary to the horizon,
// plus the hotspot's start and end so every slice lies in one phase.
func (s simSpec) cuts() []sim.Time {
	end := s.corner.SimEnd
	seen := map[sim.Time]bool{}
	var out []sim.Time
	add := func(t sim.Time) {
		if t > s.warm && t <= end && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for i := 1; i <= timedSlices; i++ {
		add(s.warm + (end-s.warm)*sim.Time(i)/timedSlices)
	}
	add(s.corner.HotStart)
	add(s.corner.HotEnd)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// simOutcome is one complete simulator operation as the harness saw it.
type simOutcome struct {
	res     simResult
	setupS  float64 // construction + install + warm-up slice
	timedS  float64 // the timed region
	events  uint64  // events dispatched in the timed region
	recn    recnCounts
	stateKB float64
}

type recnCounts struct {
	allocs, deallocs uint64
	liveSAQs         int // at the horizon
	peakSAQs         int // network-wide, over the sampler's series
}

// execute is the whole operation: the run, then the correctness checks.
// started is when the caller's clock for set-up began (process start in
// a benchmark child).
func execute(spec simSpec, tr *tracer, started time.Time) (simOutcome, error) {
	out, err := drive(spec, tr, started)
	if err != nil {
		return out, err
	}
	return out, out.check(spec)
}

// drive runs set-up, the warm-up slice and the timed slices, and
// collects what the run measured.
func drive(spec simSpec, tr *tracer, started time.Time) (simOutcome, error) {
	var out simOutcome
	r, err := setup(spec, tr)
	defer r.release()
	if err != nil {
		return out, err
	}
	done := tr.span("fabric.warmup")
	r.advance(spec.warm)
	done()
	out.setupS = time.Since(started).Seconds()

	ev0 := r.net.TotalEvents()
	tr.beginRun(r)
	t0 := time.Now()
	for _, at := range spec.cuts() {
		r.advance(at)
		tr.endSlice(r, at)
	}
	out.timedS = time.Since(t0).Seconds()
	tr.endRun(out.timedS)
	out.events = r.net.TotalEvents() - ev0

	// Read the controller state before finish: all of it is barrier
	// context, which is where a windowed run stands between advances.
	st := r.net.RECNStats()
	live, _, _ := r.net.SAQUsage()
	out.recn = recnCounts{allocs: st.Allocs, deallocs: st.Deallocs, liveSAQs: live, peakSAQs: r.saq.Peak().Total}
	out.stateKB = float64(r.net.MemStats().StateBytes) / 1024
	out.res, err = r.finish()
	return out, err
}

// check is the sim workloads' definition of a failed operation.
func (o simOutcome) check(spec simSpec) error {
	res := o.res
	switch {
	case res.Delivered == 0 || res.Delivered > res.Injected:
		return fmt.Errorf("conservation: delivered %d of %d injected", res.Delivered, res.Injected)
	case res.OrderViolations != 0:
		return fmt.Errorf("%d order violations", res.OrderViolations)
	case res.Latency.Count != res.Delivered:
		return fmt.Errorf("harness meters saw %d deliveries, fabric counted %d", res.Latency.Count, res.Delivered)
	case o.recn.allocs == 0:
		return fmt.Errorf("RECN allocated no SAQ: the hotspot formed no congestion tree")
	case o.recn.allocs-o.recn.deallocs != uint64(o.recn.liveSAQs):
		return fmt.Errorf("SAQ lifecycle: %d allocs − %d deallocs ≠ %d live", o.recn.allocs, o.recn.deallocs, o.recn.liveSAQs)
	}
	if spec.recovers {
		// The paper's claim on its own experiment: RECN recovers. The
		// delivered rate after the hotspot must be back at the rate
		// before it.
		pre, post := phaseRates(res.Throughput, spec.corner)
		if post < 0.95*pre {
			return fmt.Errorf("RECN did not recover: %.2f B/ns after the hotspot vs %.2f before", post, pre)
		}
	}
	return nil
}

// phaseRates returns the mean delivered rate (bytes/ns) before the
// hotspot and after its congestion has had as long again to drain (or
// half of what is left of the run, if that is shorter).
func phaseRates(d stats.ThroughputDump, c traffic.CornerCase) (pre, post float64) {
	mean := func(from, to sim.Time) float64 {
		lo, hi := int(from/d.Bin), int(to/d.Bin)
		if hi > len(d.Bytes) {
			hi = len(d.Bytes)
		}
		if hi <= lo {
			return 0
		}
		var sum uint64
		for _, b := range d.Bytes[lo:hi] {
			sum += b
		}
		return float64(sum) / (float64(hi-lo) * d.Bin.Nanos())
	}
	settle := c.HotEnd + min(c.HotEnd-c.HotStart, (c.SimEnd-c.HotEnd)/2)
	return mean(c.SimEnd/10, c.HotStart), mean(settle, c.SimEnd)
}

// benchAdapter is the bench's own traffic.Network over the fabric (the
// figures' is experiments.netAdapter, unexported): injection errors are
// kept per host and fail the operation instead of panicking. It hands
// every source a per-host view on both runtimes, so a traced run can
// charge each callback to the shard that ran it.
type benchAdapter struct{ r *simRun }

func (a benchAdapter) Hosts() int                      { return a.r.spec.hosts }
func (a benchAdapter) Now() sim.Time                   { return a.r.net.Engine.Now() }
func (a benchAdapter) Schedule(at sim.Time, fn func()) { a.r.net.Engine.Schedule(at, fn) }
func (a benchAdapter) Inject(src, dst, size int)       { a.r.inject(a.r.spec.hosts, src, dst, size) }

func (a benchAdapter) ScheduleOn(caller, host int, at sim.Time, fn func()) {
	a.r.net.ScheduleRemote(caller, host, at, fn)
}

func (a benchAdapter) HostView(host int) traffic.Network {
	eng := a.r.net.Engine
	shard := 0
	if a.r.net.ShardCount() > 0 {
		shard = a.r.net.HostShard(host)
		eng = a.r.net.ShardEngine(shard)
	}
	v := &hostView{benchAdapter: a, host: host, eng: eng}
	if a.r.tr != nil {
		return &tracedHostView{hostView: v, slot: &a.r.tr.slots[shard]}
	}
	return v
}

func (r *simRun) inject(slot, src, dst, size int) {
	if err := r.net.InjectMessage(src, dst, size); err != nil && r.injectErr[slot] == nil {
		r.injectErr[slot] = err
	}
}

// hostView is one host's injection surface: time and scheduling come
// from the engine that simulates the host.
type hostView struct {
	benchAdapter
	host int
	eng  *sim.Engine
}

func (v *hostView) Now() sim.Time                   { return v.eng.Now() }
func (v *hostView) Schedule(at sim.Time, fn func()) { v.eng.Schedule(at, fn) }
func (v *hostView) Inject(src, dst, size int)       { v.r.inject(v.host, src, dst, size) }
