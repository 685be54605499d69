package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fabric"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// tracer records spans around the harness's own calls into each layer.
// It is a pure observer: every wrapper schedules, injects and meters
// exactly what the unwrapped call would, so a traced run's digest
// equals the untraced one's. All methods accept a nil receiver and then
// add nothing to the run: the untraced path executes the same code with
// the program's callbacks installed bare.
//
// Coarse spans (one call each) are stored individually. The per-call
// children of fabric.run (generator callbacks, InjectMessage, the
// delivery meters, SAQUsage) are far too many for that: they aggregate
// as count + ns into one slot per shard, written only by the goroutine
// that runs that shard, and the coordinator snapshots the slots at
// slice boundaries, when the shard goroutines are parked.
type tracer struct {
	origin time.Time
	spans  []span
	// slots[i] collects the callbacks shard i's goroutine runs (slot 0
	// on the serial engine); coord collects SAQUsage, which runs on the
	// coordinator in both runtimes.
	slots  []slot
	coord  callAgg
	slices []sliceRec

	runStart time.Time
	mallocs0 uint64
	mallocs  uint64
}

// span is one coarse span: times are ns since the tracer's origin.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type callAgg struct {
	N  int64 `json:"n"`
	Ns int64 `json:"ns"`
}

func (a *callAgg) since(t0 time.Time) {
	a.N++
	a.Ns += int64(time.Since(t0))
}

// slot is one shard goroutine's aggregates, padded so two shards never
// write the same cache line.
type slot struct {
	gen, inject, deliver callAgg
	_                    [64]byte
}

// children is the per-call span totals of fabric.run, summed over the
// shard slots. Gen includes the Inject calls made inside the generator
// callbacks; genSelf subtracts them.
type children struct {
	Gen      callAgg `json:"gen"`
	Inject   callAgg `json:"inject"`
	Deliver  callAgg `json:"deliver"`
	SAQUsage callAgg `json:"saq_usage"`
}

// sliceRec is one Engine.Run / RunWindowed slice of the timed region:
// where it ended, and cumulative samples taken there.
type sliceRec struct {
	At        sim.Time `json:"at_ps"`
	WallNs    int64    `json:"wall_ns"` // since the start of fabric.run
	Events    uint64   `json:"events"`  // TotalEvents
	Pending   int      `json:"pending"` // queued events, summed over engines
	Delivered uint64   `json:"delivered"`
	Children  children `json:"children"`
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

var noop = func() {}

// span opens a coarse span under the set-up root and returns the call
// that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	start := time.Since(t.origin)
	return func() {
		t.spans = append(t.spans, span{Name: name, Parent: "setup", StartNs: int64(start), EndNs: int64(time.Since(t.origin))})
	}
}

// bind sizes the slots once the network's shard count is known.
func (t *tracer) bind(net *fabric.Network) {
	if t == nil {
		return
	}
	t.slots = make([]slot, max(1, net.ShardCount()))
}

func (t *tracer) wrapDeliver(shard int, fn func(*pkt.Packet)) func(*pkt.Packet) {
	if t == nil {
		return fn
	}
	agg := &t.slots[shard].deliver
	return func(p *pkt.Packet) {
		t0 := time.Now()
		fn(p)
		agg.since(t0)
	}
}

func (t *tracer) wrapSAQUsage(fn func() (int, int, int)) func() (int, int, int) {
	if t == nil {
		return fn
	}
	return func() (int, int, int) {
		t0 := time.Now()
		a, b, c := fn()
		t.coord.since(t0)
		return a, b, c
	}
}

func (t *tracer) totals() children {
	c := children{SAQUsage: t.coord}
	for i := range t.slots {
		s := &t.slots[i]
		c.Gen.N += s.gen.N
		c.Gen.Ns += s.gen.Ns
		c.Inject.N += s.inject.N
		c.Inject.Ns += s.inject.Ns
		c.Deliver.N += s.deliver.N
		c.Deliver.Ns += s.deliver.Ns
	}
	return c
}

// beginRun opens the fabric.run root: the warm-up's callbacks are set
// up, not run, so the aggregates restart from zero.
func (t *tracer) beginRun(r *simRun) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.origin))
	t.spans = append(t.spans, span{Name: "setup", StartNs: 0, EndNs: end})
	for i := range t.slots {
		t.slots[i] = slot{}
	}
	t.coord = callAgg{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs0 = ms.Mallocs
	t.runStart = time.Now()
	t.endSlice(r, r.spec.warm) // the baseline the first slice is a delta against
}

// endSlice samples the engines at a slice boundary. In a windowed run
// this is barrier context: the shard goroutines are parked inside
// ShardGroup.Step's channel hand-off, so their slots are safe to read.
func (t *tracer) endSlice(r *simRun, at sim.Time) {
	if t == nil {
		return
	}
	net := r.net
	pending := net.Engine.Pending()
	for i := 0; i < net.ShardCount(); i++ {
		pending += net.ShardEngine(i).Pending()
	}
	t.slices = append(t.slices, sliceRec{
		At: at, WallNs: int64(time.Since(t.runStart)),
		Events: net.TotalEvents(), Pending: pending, Delivered: net.DeliveredPackets,
		Children: t.totals(),
	})
}

// endRun closes the fabric.run root with the duration the harness
// measured for it (the same clock reads events_per_s is taken from).
func (t *tracer) endRun(timedS float64) {
	if t == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs = ms.Mallocs - t.mallocs0
	start := int64(t.runStart.Sub(t.origin))
	t.spans = append(t.spans, span{Name: "fabric.run", StartNs: start, EndNs: start + int64(timedS*1e9)})
}

// dur returns the duration in seconds of the first span with the name
// (0 if the run never opened it: fabric.shard on a serial run).
func dur(spans []span, name string) float64 {
	for _, s := range spans {
		if s.Name == name {
			return float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	return 0
}

// selfTimes returns each root span's self time: its duration minus its
// children's. A negative self time means children overlap or outlive
// their parent, and the accounting (self times summing to the root) is
// broken. threads is how many goroutines ran fabric.run's children side
// by side; its accounting is in thread time: the shard goroutines run
// the generator, injection and delivery callbacks concurrently, while a
// SAQUsage call on the coordinator holds every one of them at the
// barrier.
func selfTimes(spans []span, c children, threads int) (setupSelf, runSelf float64, err error) {
	setupSelf = dur(spans, "setup")
	for _, s := range spans {
		if s.Parent == "setup" {
			setupSelf -= float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	kids := float64(c.Gen.Ns+c.Deliver.Ns)/1e9 + float64(threads)*float64(c.SAQUsage.Ns)/1e9
	runSelf = float64(threads)*dur(spans, "fabric.run") - kids
	if setupSelf < 0 || runSelf < 0 {
		return 0, 0, fmt.Errorf("span children outlast their root: self time %.4fs of setup, %.4fs of fabric.run", setupSelf, runSelf)
	}
	return setupSelf, runSelf, nil
}

// tracedHostView times a source's generator callbacks and injections
// into its shard's slot.
type tracedHostView struct {
	*hostView
	slot *slot
	// A source keeps one callback outstanding at a time (each generator
	// call schedules its successor), so one prebuilt thunk carries it
	// and tracing adds no allocation per event; a second outstanding
	// callback falls back to a closure of its own.
	pending func()
	thunk   func()
}

var _ traffic.Network = (*tracedHostView)(nil)

func (v *tracedHostView) timed(fn func()) {
	t0 := time.Now()
	fn()
	v.slot.gen.since(t0)
}

func (v *tracedHostView) Schedule(at sim.Time, fn func()) {
	if v.pending != nil {
		v.eng.Schedule(at, func() { v.timed(fn) })
		return
	}
	if v.thunk == nil {
		v.thunk = func() {
			fn := v.pending
			v.pending = nil
			v.timed(fn)
		}
	}
	v.pending = fn
	v.eng.Schedule(at, v.thunk)
}

func (v *tracedHostView) Inject(src, dst, size int) {
	t0 := time.Now()
	v.hostView.Inject(src, dst, size)
	v.slot.inject.since(t0)
}
