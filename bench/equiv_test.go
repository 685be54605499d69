package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
)

// The proof that the benchmark measures what the figures run: the
// hand-wired run (warm-up split, slicing, the bench's own adapter,
// meters and SAQ sampler, with and without tracing) is event for event
// the run experiments.Run.Execute makes of the same spec. The sizes are
// the workloads' own shapes at a fiftieth of the paper's horizon.

const testScale = 0.02

func testSpec(t *testing.T, hosts int, topo string, shards int) simSpec {
	t.Helper()
	seed := int64(1)
	if topo == "fattree" {
		seed = 7
	}
	shape := simShape{hosts: hosts, topo: topo, shards: shards, scale: testScale, figureSeed: seed}
	spec, err := shape.spec(0)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// reference executes a run the way a figure does and puts the result in
// the harness's form.
func reference(t *testing.T, run experiments.Run) simResult {
	t.Helper()
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return simResult{
		Injected: res.Injected, Delivered: res.Delivered, Events: res.Events,
		OrderViolations: res.OrderViolations,
		Throughput:      res.Throughput.Dump(), Latency: res.Latency.Dump(), SAQ: res.SAQ.Dump(),
	}
}

func harness(t *testing.T, spec simSpec, traced bool) simResult {
	t.Helper()
	var tr *tracer
	if traced {
		tr = newTracer(time.Now())
	}
	out, err := drive(spec, tr, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if out.events == 0 || out.res.Delivered == 0 {
		t.Fatalf("nothing simulated: %d timed events, %d delivered", out.events, out.res.Delivered)
	}
	if traced {
		if _, err := simLayer(spec, tr, out); err != nil {
			t.Fatal(err)
		}
		if c := tr.totals(); c.Inject.N == 0 || c.Gen.N < c.Inject.N || c.Deliver.N == 0 || c.SAQUsage.N == 0 {
			t.Fatalf("tracer saw no calls: %+v", c)
		}
	}
	return out.res
}

func sameResult(t *testing.T, what string, got, want simResult) {
	t.Helper()
	if reflect.DeepEqual(got, want) && got.digest() == want.digest() {
		return
	}
	t.Errorf("%s: results differ\n got: injected %d delivered %d events %d digest %.16s\nwant: injected %d delivered %d events %d digest %.16s",
		what, got.Injected, got.Delivered, got.Events, got.digest(), want.Injected, want.Delivered, want.Events, want.digest())
}

func TestHandWiredRunEqualsExecute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hosts int
		topo  string
	}{{"corner64", 64, "min"}, {"fat4k", 4096, "fattree"}} {
		t.Run(tc.name, func(t *testing.T) {
			serial := testSpec(t, tc.hosts, tc.topo, 0)
			want := reference(t, serial.run())
			sameResult(t, "untraced serial", harness(t, serial, false), want)
			sameResult(t, "traced serial", harness(t, serial, true), want)

			// Windowed: the sliced run equals Execute's single
			// RunWindowed call, and one shard equals two.
			two := testSpec(t, tc.hosts, tc.topo, 2)
			unsplit := reference(t, two.run())
			sameResult(t, "untraced, 2 shards, sliced", harness(t, two, false), unsplit)
			sameResult(t, "traced, 2 shards, sliced", harness(t, two, true), unsplit)
			sameResult(t, "1 shard, sliced", harness(t, testSpec(t, tc.hosts, tc.topo, 1), false), unsplit)
		})
	}
}

// At the figure's own seed the bench's statement of the scaling hotspot
// is the figure's: the run equals experiments.ScalingRun's.
func TestScalingRecipeEqualsScalingRun(t *testing.T) {
	run, err := experiments.ScalingRun(4096, fabric.PolicyRECN, experiments.Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	run.Bin = run.Until / 160 // the figure's bin width (ScalingRun leaves Execute's default)
	spec := testSpec(t, 4096, "fattree", 0)
	if spec.corner.Seed != 7 || spec.corner.SimEnd != run.Until {
		t.Fatalf("spec seed %d horizon %v, figure seed 7 horizon %v", spec.corner.Seed, spec.corner.SimEnd, run.Until)
	}
	sameResult(t, "scaling recipe", harness(t, spec, false), reference(t, run))
}

// A workload whose generator injects at a host that does not exist
// fails its operation; it neither panics nor passes.
func TestInjectionErrorFailsTheOperation(t *testing.T) {
	for _, shards := range []int{0, 2} {
		spec := testSpec(t, 64, "min", shards)
		spec.corner.HotDest = spec.hosts + 5
		_, err := drive(spec, nil, time.Now())
		if err == nil || !strings.Contains(err.Error(), "workload injection") {
			t.Errorf("shards %d: got error %v, want a workload injection error", shards, err)
		}
	}
}

// The benchmark's own sizes form a congestion tree and pass every check
// the workloads are failed on (one 64-host repetition is ~3 s).
func TestCorner64PassesItsChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corner64 workload at benchmark size")
	}
	spec, err := workloads[0].sim.spec(0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute(spec, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if out.timedS <= 0 || out.setupS <= 0 || out.events == 0 {
		t.Fatalf("empty outcome: %+v", out)
	}
}
