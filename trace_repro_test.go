package repro

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// traceRun executes one seeded corner-case run with the flight
// recorder attached and returns the recorder plus the run result.
func traceRun(t *testing.T, scale float64, cfg TraceConfig, faultSpec string) (*TraceRecorder, *Result) {
	t.Helper()
	c, err := Corner(2, 64, 64, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run{
		Hosts:     64,
		Policy:    PolicyRECN,
		Workload:  c.Install,
		Until:     c.SimEnd,
		FaultSpec: faultSpec,
		Trace:     &cfg,
	}.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Run.Trace set but Result.Trace is nil")
	}
	return res.Trace, res
}

// digest hashes every export format of a recording.
func digest(t *testing.T, rec *TraceRecorder) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteTrees(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestTraceDeterminism runs the same seeded scenario twice — with and
// without fault injection — and requires byte-identical trace exports:
// events are stamped with (sim time, dispatch sequence), never wall
// clock, and no export may depend on map iteration order.
func TestTraceDeterminism(t *testing.T) {
	cfg := TraceConfig{MetricsBin: Time(500 * Nanosecond)}
	for _, faults := range []string{"", "seed=3,drop=token:1,droprate=credit:0.02,flap=0:4:3us:5us"} {
		recA, resA := traceRun(t, 0.02, cfg, faults)
		recB, resB := traceRun(t, 0.02, cfg, faults)
		if resA.Events != resB.Events || resA.Delivered != resB.Delivered {
			t.Fatalf("faults=%q: runs diverged: %d/%d events, %d/%d delivered",
				faults, resA.Events, resB.Events, resA.Delivered, resB.Delivered)
		}
		if recA.Total() == 0 {
			t.Fatalf("faults=%q: recorder captured nothing", faults)
		}
		if digest(t, recA) != digest(t, recB) {
			t.Errorf("faults=%q: trace exports differ between identical seeded runs", faults)
		}
	}
}

// TestTraceLifecycle runs the hotspot corner case with the recorder
// restricted to congestion-tree events and checks a full SAQ
// alloc → token → dealloc lifecycle was captured and reconstructed.
func TestTraceLifecycle(t *testing.T) {
	mask, err := ParseTraceEvents("tree")
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := traceRun(t, 0.05, TraceConfig{Events: mask}, "")
	trees := rec.Trees()
	if len(trees) == 0 {
		t.Fatal("no congestion trees reconstructed from a hotspot run")
	}
	full := trees[0]
	for _, tree := range trees {
		if tree.Allocs > 0 && tree.Deallocs > 0 && tree.Tokens > 0 {
			full = tree
			break
		}
	}
	if full.Allocs == 0 || full.Deallocs == 0 || full.Tokens == 0 {
		t.Fatalf("no tree with a complete alloc→token→dealloc lifecycle among %d trees", len(trees))
	}
	if full.Born < 0 {
		t.Errorf("complete tree has no birth time: %+v", full)
	}
	if full.PeakSAQs <= 0 {
		t.Errorf("complete tree never held a SAQ: %+v", full)
	}
}

// TestTraceObservationNeutral checks the recorder is a pure observer:
// attaching one (without the metrics sampler, which adds its own
// engine events) must not change what the simulation does.
func TestTraceObservationNeutral(t *testing.T) {
	run := func(cfg *TraceConfig) *Result {
		c, err := Corner(1, 64, 64, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run{
			Hosts:    64,
			Policy:   PolicyRECN,
			Workload: c.Install,
			Until:    c.SimEnd,
			Trace:    cfg,
		}.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	traced := run(&TraceConfig{})
	if plain.Events != traced.Events || plain.Delivered != traced.Delivered ||
		plain.Injected != traced.Injected || plain.OrderViolations != traced.OrderViolations {
		t.Fatalf("tracing perturbed the run: %d/%d events, %d/%d delivered",
			plain.Events, traced.Events, plain.Delivered, traced.Delivered)
	}
}
