// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in integer picoseconds (Time). Events are callbacks
// scheduled at absolute times; events scheduled for the same instant fire
// in FIFO order of scheduling, which makes runs fully deterministic for a
// fixed program order and RNG seed.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is an absolute simulation time in picoseconds.
type Time int64

// Common durations expressed in Time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// String formats the time with the most natural unit for logs.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// ParseTime parses a duration like "250ns", "1.5us", "2ms" or "800ps"
// into a Time. It is the inverse of String for whole-unit values and is
// used by command-line flags (e.g. recnsim -faults).
func ParseTime(s string) (Time, error) {
	s = strings.TrimSpace(s)
	in := s
	unit := Picosecond
	switch {
	case strings.HasSuffix(s, "ms"):
		unit, s = Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"), strings.HasSuffix(s, "µs"):
		unit, s = Microsecond, strings.TrimSuffix(strings.TrimSuffix(s, "us"), "µs")
	case strings.HasSuffix(s, "ns"):
		unit, s = Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ps"):
		unit, s = Picosecond, s[:len(s)-2]
	default:
		return 0, fmt.Errorf("sim: duration %q needs a unit (ps, ns, us, ms)", s)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sim: duration %q: %v", s, err)
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("sim: duration %q must be a finite, non-negative value", s)
	}
	// float64(math.MaxInt64) rounds up to 2^63, the first product that
	// no longer converts to an int64 Time.
	ps := v * float64(unit)
	if ps >= float64(math.MaxInt64) {
		return 0, fmt.Errorf("sim: duration %q is out of range (max %v)", in, Time(math.MaxInt64))
	}
	return Time(ps), nil
}

// Micros returns the time converted to microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns the time converted to nanoseconds as a float.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// evNode is one entry of the event priority queue. It holds only the
// ordering key (at, seq) plus an index into the pooled callback records,
// so the heap slice is small (24 bytes/node), pointer-free (the GC never
// scans it) and cheap to sift. seq values are unique, so (at, seq) is a
// total order and any correct heap pops events in the same sequence —
// the dispatch order is independent of the heap implementation.
type evNode struct {
	at  Time
	seq uint64
	rec int32
}

func evLess(a, b evNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evRec is a pooled callback record. Exactly one of fn / afn is set:
// Schedule stores a plain func(), ScheduleArg stores a pre-bound
// callback plus its argument (a pointer stored in an any does not
// allocate, so call sites can pass event state without a closure).
type evRec struct {
	fn  func()
	afn func(any)
	arg any
}

// Engine is a single-threaded discrete-event scheduler.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// the whole simulation runs on one goroutine (the model is intentionally
// sequential so that results are reproducible).
//
// The event queue is an implicit 4-ary min-heap over (time, sequence)
// keys; callbacks live in a free-listed record pool, so steady-state
// scheduling performs no heap allocations (the old container/heap
// implementation boxed every event into an interface{} on push).
type Engine struct {
	now     Time
	seq     uint64
	events  []evNode
	recs    []evRec
	free    []int32 // free-list of recs indices
	stopped bool

	// encode switches the engine into shard-sequence mode (see
	// NewShardEngine): instead of a run-long counter, every scheduled
	// event gets the composite sequence (scheduling-time << seqTimeShift)
	// | per-instant counter, so the dispatch order of same-time events
	// reflects *when* they were scheduled — a quantity that does not
	// depend on how the simulation is partitioned across engines.
	encode bool
	encNow Time
	encCnt uint64

	// probe, when set, observes every dispatch as (time, scheduling
	// sequence) before the callback runs. Test-only: the determinism
	// regression suite uses it to pin the dispatch order.
	probe func(at Time, seq uint64)

	// Executed counts events dispatched since construction; useful for
	// progress reporting and performance accounting.
	Executed uint64
}

// SetDispatchProbe installs a hook observing every dispatched event as
// its (time, scheduling-sequence) pair, called just before the event's
// callback. Passing nil removes the hook. Intended for determinism
// regression tests; the hook must not schedule events itself.
func (e *Engine) SetDispatchProbe(fn func(at Time, seq uint64)) { e.probe = fn }

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Shard-sequence encoding: the low seqCntBits bits are a per-instant
// counter, the bit above them separates locally scheduled events (0)
// from boundary-mailbox deliveries (1), and everything above is the
// scheduling time in picoseconds. Same-instant events therefore
// dispatch ordered by when they were scheduled, with mailbox arrivals
// slotted after the local events of the same scheduling instant.
const (
	seqCntBits   = 27
	seqTimeShift = seqCntBits + 1
	// SeqMailboxBit marks a composite sequence as a boundary-mailbox
	// delivery (see ScheduleExt callers in internal/fabric).
	SeqMailboxBit = uint64(1) << seqCntBits
	// MaxShardTime bounds the simulation horizon of a shard engine: the
	// scheduling time must fit the bits above the counter field.
	MaxShardTime = Time(1)<<(63-seqTimeShift) - 1
)

// NewShardEngine returns an engine for one shard of a partitioned
// simulation. It differs from NewEngine only in sequence assignment
// (composite scheduling-time sequences, see above); scheduling API,
// dispatch loop and determinism guarantees are identical.
func NewShardEngine() *Engine { return &Engine{encode: true} }

// ComposeSeq builds the composite sequence for a boundary-mailbox
// delivery scheduled by the window runner: sendAt is the instant the
// message was transmitted (its scheduling time), idx the delivery's
// rank among same-(arrival, sendAt) mailbox messages.
func ComposeSeq(sendAt Time, idx uint64) uint64 {
	return uint64(sendAt)<<seqTimeShift | SeqMailboxBit | idx
}

// NextAt returns the time of the earliest pending event.
func (e *Engine) NextAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// AdvanceTo moves the clock forward to t without dispatching anything.
// The window runner uses it so coordinator-driven work scheduled "now"
// carries the barrier's timestamp; t must not rewind the clock or skip
// pending events.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo rewinds the clock (now=%v, t=%v)", e.now, t))
	}
	if len(e.events) > 0 && e.events[0].at < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip a pending event at %v", t, e.events[0].at))
	}
	e.now = t
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Stamp returns the current time together with the dispatch count — a
// pair that totally orders observations made by the running simulation
// (events at the same instant are distinguished by their dispatch
// sequence). Tracing uses it so exports never depend on wall clock.
func (e *Engine) Stamp() (Time, uint64) { return e.now, e.Executed }

// allocRec takes a callback record from the free-list (or grows the
// pool) and returns its index.
func (e *Engine) allocRec() int32 {
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free = e.free[:n-1]
		return r
	}
	e.recs = append(e.recs, evRec{})
	return int32(len(e.recs) - 1)
}

// push inserts a node into the 4-ary heap (sift-up by hole movement).
func (e *Engine) push(n evNode) {
	h := append(e.events, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	e.events = h
}

// pop removes and returns the minimum node.
func (e *Engine) pop() evNode {
	h := e.events
	root := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	e.events = h
	if n := len(h); n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if evLess(h[j], h[m]) {
					m = j
				}
			}
			if !evLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
}

// schedule enqueues an already-populated record at (at, next seq).
func (e *Engine) schedule(at Time, rec int32) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (now=%v, at=%v)", e.now, at))
	}
	var seq uint64
	if e.encode {
		if e.now != e.encNow {
			e.encNow, e.encCnt = e.now, 0
		}
		if e.now > MaxShardTime {
			panic(fmt.Sprintf("sim: shard engine past the encodable horizon (now=%v, max %v)", e.now, MaxShardTime))
		}
		if e.encCnt >= SeqMailboxBit {
			panic(fmt.Sprintf("sim: over %d events scheduled at %v on one shard", SeqMailboxBit, e.now))
		}
		seq = uint64(e.now)<<seqTimeShift | e.encCnt
		e.encCnt++
	} else {
		e.seq++
		seq = e.seq
	}
	e.push(evNode{at: at, seq: seq, rec: rec})
}

// ScheduleExt runs fn(arg) at time at with an explicit, caller-built
// sequence. Only meaningful on shard engines: the window runner uses it
// to deliver boundary-mailbox messages with ComposeSeq sequences so
// they interleave deterministically with locally scheduled events.
func (e *Engine) ScheduleExt(at Time, seq uint64, fn func(any), arg any) {
	if fn == nil {
		panic("sim: ScheduleExt called with nil fn")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: ScheduleExt into the past (now=%v, at=%v)", e.now, at))
	}
	r := e.allocRec()
	e.recs[r].afn = fn
	e.recs[r].arg = arg
	e.push(evNode{at: at, seq: seq, rec: r})
}

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a model bug (causality violation).
func (e *Engine) Schedule(at Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil fn")
	}
	r := e.allocRec()
	e.recs[r].fn = fn
	e.schedule(at, r)
}

// ScheduleArg runs fn(arg) at absolute time at. It is the pre-bound
// form of Schedule for hot call sites: fn is typically a func stored
// once per object and arg a pointer to the event's state, so scheduling
// allocates nothing (closure captures are what made Schedule call sites
// allocate). Ordering is identical to Schedule — both draw from the
// same sequence counter.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: ScheduleArg called with nil fn")
	}
	r := e.allocRec()
	e.recs[r].afn = fn
	e.recs[r].arg = arg
	e.schedule(at, r)
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.Schedule(e.now+d, fn)
}

// AfterArg runs fn(arg) after delay d from the current time.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.ScheduleArg(e.now+d, fn, arg)
}

// Stop makes Run return after the currently dispatching event.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return len(e.events) }

// dispatch pops the minimum event, releases its record back to the
// free-list, and invokes the callback. The callback fields are copied
// out before the record is freed, so callbacks may immediately reuse
// the slot by scheduling new events.
func (e *Engine) dispatch() {
	ev := e.pop()
	r := &e.recs[ev.rec]
	fn, afn, arg := r.fn, r.afn, r.arg
	r.fn, r.afn, r.arg = nil, nil, nil
	e.free = append(e.free, ev.rec)
	e.now = ev.at
	e.Executed++
	if e.probe != nil {
		e.probe(ev.at, ev.seq)
	}
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// Run dispatches events in time order until the queue is empty, the
// clock would pass until, or Stop is called. Events scheduled exactly at
// until still run. It returns the number of events dispatched.
func (e *Engine) Run(until Time) uint64 {
	start := e.Executed
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > until {
			break
		}
		e.dispatch()
	}
	// Advance the clock to the horizon so a subsequent Run continues
	// from there even if the queue drained early.
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.Executed - start
}

// Drain dispatches every remaining event regardless of time. It is
// intended for quiescence checks at the end of an experiment.
func (e *Engine) Drain() uint64 {
	start := e.Executed
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		e.dispatch()
	}
	return e.Executed - start
}
