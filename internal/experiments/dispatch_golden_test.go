package experiments

// Determinism regression for the event scheduler: the exact dispatch
// order of the simulator is part of the reproduction contract (the
// serial-vs-parallel sweep goldens, the trace (time, seq) stamps and
// the run cache all assume it is stable). Each pinned cell hashes every
// dispatched (time, scheduling-sequence) pair of a run and keeps the
// digest, with the run's executed, injected and delivered counts, as
// one row of testdata/dispatch.txt: the Figure 2 and Figure 3 seeds
// (captured from the pre-rewrite container/heap scheduler), the
// shoot-out seeds, every policy on every topology, and the periodic
// drivers serial and windowed.
//
// Regenerate with UPDATE_DISPATCH_GOLDEN=1 go test -run DispatchGolden
// ./internal/experiments (only legitimate when the model itself — not
// the scheduler — changes event order).

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// min64 is the paper's 64-host perfect-shuffle MIN, the topology of
// every single-policy dispatch golden.
func min64(t *testing.T) fabric.Topology {
	t.Helper()
	topo, err := topology.ForHosts(64)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// hashDispatch hashes every (time, seq) pair an engine dispatches.
func hashDispatch(eng *sim.Engine) hash.Hash64 {
	h := fnv.New64a()
	var buf [16]byte
	eng.SetDispatchProbe(func(at sim.Time, seq uint64) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], seq)
		h.Write(buf[:])
	})
	return h
}

// captureDispatch mirrors Run.Execute's network construction with a
// dispatch probe attached, running the workload to the horizon. The
// row's digest hashes every dispatched pair followed by the executed
// and delivered counts.
func captureDispatch(t *testing.T, topo fabric.Topology, policy fabric.Policy, mutate func(*fabric.Config),
	workload func(traffic.Network) error, until sim.Time) dispatchRow {
	t.Helper()
	cfg := fabric.DefaultConfig(topo)
	cfg.Policy = policy
	if mutate != nil {
		mutate(&cfg)
	}
	net, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := hashDispatch(net.Engine)
	if err := workload(net.Traffic()); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(until)
	if err := net.InjectErr(); err != nil {
		t.Fatal(err)
	}
	g := dispatchRow{
		executed: net.Engine.Executed, injected: net.InjectedPackets,
		delivered: net.DeliveredPackets, deliveredBytes: net.DeliveredBytes,
	}
	fmt.Fprintf(stream, "%d|%d", g.executed, g.delivered)
	g.stream = fmt.Sprintf("%016x", stream.Sum64())
	return g
}

// TestDispatchGoldenFig2 pins the scheduler's dispatch order on the
// Figure 2 corner-case-1 seed under RECN.
func TestDispatchGoldenFig2(t *testing.T) {
	workload, until, err := CornerWorkload(1, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pinDispatch(t, "fig2", captureDispatch(t, min64(t), fabric.PolicyRECN, nil, workload, until))
}

// TestDispatchGoldenFig3 pins the dispatch order on the Figure 3 SAN
// trace seed (cello model, compression 20) under RECN.
func TestDispatchGoldenFig3(t *testing.T) {
	workload, until := CelloWorkload(20, 0.25)
	pinDispatch(t, "fig3", captureDispatch(t, min64(t), fabric.PolicyRECN, celloMutate, workload, until))
}

// policyWorkload is the per-policy pin's workload: corner case 2 on 64
// hosts, its hotspot moved to 2–30 µs of a 40 µs run.
func policyWorkload(t *testing.T) traffic.CornerCase {
	t.Helper()
	c, err := traffic.Corner(2, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	c.HotStart, c.HotEnd, c.SimEnd = 2*sim.Microsecond, 30*sim.Microsecond, 40*sim.Microsecond
	return c
}

// policyTopos are the per-policy pin's topologies, MIN first (-short
// runs that row only).
var policyTopos = []struct {
	name  string
	build func() (fabric.Topology, error)
}{
	{"min", func() (fabric.Topology, error) { return topology.ForHosts(64) }},
	{"fattree", func() (fabric.Topology, error) { return topology.NewFatTree(64) }},
	{"mesh", func() (fabric.Topology, error) { return topology.NewMesh(8, 8) }},
}

func shortTopos() int {
	if testing.Short() {
		return 1
	}
	return len(policyTopos)
}

// TestDispatchGoldenPolicies pins the complete dispatch stream of every
// policy on every topology (cells "policies/<topo>/<policy>") under
// policyWorkload. The window is long enough for each mechanism's own
// machinery to act (SAQs, ECN marks, steering hints), so no two cells
// share a digest; at the shorter horizon of scale 0.01 RECN, throttle
// and arn all hash equal to 1Q. -short runs the MIN row.
func TestDispatchGoldenPolicies(t *testing.T) {
	c := policyWorkload(t)
	for _, tp := range policyTopos[:shortTopos()] {
		for _, p := range fabric.Policies {
			t.Run(tp.name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				topo, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				pinDispatch(t, "policies/"+tp.name+"/"+p.String(), captureDispatch(t, topo, p, nil, c.Install, c.SimEnd))
			})
		}
	}
}

// TestDispatchGoldenCollapse: with its congestion thresholds out of
// reach, each mechanism never engages and must dispatch exactly what 1Q
// does — RECN never allocates a SAQ, throttle never marks, arn never
// raises a hint. Each cell must equal its topology's committed 1Q row.
// -short runs the MIN row.
func TestDispatchGoldenCollapse(t *testing.T) {
	const never = 1 << 40
	c := policyWorkload(t)
	cells := []struct {
		policy fabric.Policy
		mutate func(*fabric.Config)
	}{
		{fabric.PolicyRECN, func(cfg *fabric.Config) {
			cfg.RECN.DetectBytes, cfg.RECN.PropagateBytes, cfg.RECN.XoffBytes = never, never, never
		}},
		{fabric.PolicyThrottle, func(cfg *fabric.Config) { cfg.Throttle.MarkBytes = never }},
		{fabric.PolicyARN, func(cfg *fabric.Config) { cfg.ARN.HintOnBytes = never }},
	}
	for _, tp := range policyTopos[:shortTopos()] {
		for _, cell := range cells {
			t.Run(tp.name+"/"+cell.policy.String(), func(t *testing.T) {
				t.Parallel()
				topo, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				got := captureDispatch(t, topo, cell.policy, cell.mutate, c.Install, c.SimEnd)
				checkDispatch(t, "policies/"+tp.name+"/1Q", got, false)
			})
		}
	}
}

// dispatchGoldenFile holds the dispatch pins kept as line rows, one
// per cell: "<cell> <stream digest> <executed> <injected> <delivered>
// <delivered bytes>".
const dispatchGoldenFile = "dispatch.txt"

// dispatchRow is one pinned cell's row (the cell name aside).
type dispatchRow struct {
	stream                                        string
	executed, injected, delivered, deliveredBytes uint64
}

func (r dispatchRow) String() string {
	return fmt.Sprintf("%s %d %d %d %d", r.stream, r.executed, r.injected, r.delivered, r.deliveredBytes)
}

// goldenMu serializes the read-modify-write of the golden file across
// parallel subtests.
var goldenMu sync.Mutex

// pinDispatch checks a cell's row against the golden file; with
// UPDATE_DISPATCH_GOLDEN set it rewrites that row instead, keeping every
// other row.
func pinDispatch(t *testing.T, cell string, got dispatchRow) {
	t.Helper()
	checkDispatch(t, cell, got, os.Getenv("UPDATE_DISPATCH_GOLDEN") != "")
}

// checkDispatch is pinDispatch with the update switch explicit: a test
// that compares a run against another cell's row must never rewrite it.
func checkDispatch(t *testing.T, cell string, got dispatchRow, update bool) {
	t.Helper()
	path := filepath.Join("testdata", dispatchGoldenFile)
	line := cell + " " + got.String()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	rows := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if fs := strings.Fields(l); len(fs) == 6 && !strings.HasPrefix(fs[0], "#") {
				rows[fs[0]] = l
			}
		}
	} else if !update {
		t.Fatalf("missing golden %s (regenerate with UPDATE_DISPATCH_GOLDEN=1): %v", path, err)
	}
	if !update {
		if rows[cell] != line {
			t.Fatalf("dispatch stream moved:\n got  %s\n want %s", line, rows[cell])
		}
		return
	}
	rows[cell] = line
	lines := make([]string, 0, len(rows))
	for _, l := range rows {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	data := "# <cell> <stream digest> <executed> <injected> <delivered> <delivered bytes>\n" +
		strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchGoldenDrivers pins the periodic drivers — idle-SAQ sweep,
// recovery watchdog, trace metrics sampler and invariant checker — all
// on at once, serial and on the windowed runtime, where the coordinator
// engine runs nothing else. RECN on the per-policy pin's workload is
// drained, so the row also pins that every driver stops re-arming. The
// digest covers the dispatch stream of net.Engine, the audit count,
// the metrics registry (every series' bins) and the fault report: the
// drivers' work as well as their timing.
func TestDispatchGoldenDrivers(t *testing.T) {
	c := policyWorkload(t)
	for _, shards := range []int{0, 1, 2} {
		cell := "drivers/serial"
		if shards > 0 {
			cell = fmt.Sprintf("drivers/shards%d", shards)
		}
		t.Run(cell[len("drivers/"):], func(t *testing.T) {
			t.Parallel()
			cfg := fabric.DefaultConfig(min64(t))
			cfg.Policy = fabric.PolicyRECN
			cfg.Recovery = fault.Recovery{Enabled: true, Period: 2 * sim.Microsecond}
			cfg.Tracer = trace.New(trace.Config{MetricsBin: sim.Microsecond})
			chk := check.New(check.Config{})
			cfg.Checker = chk
			net, err := fabric.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 {
				if _, err := net.Shard(shards); err != nil {
					t.Fatal(err)
				}
			}
			stream := hashDispatch(net.Engine)
			if err := c.Install(net.Traffic()); err != nil {
				t.Fatal(err)
			}
			if shards > 0 {
				net.RunWindowed(c.SimEnd)
				net.DrainWindowed()
			} else {
				net.Engine.Run(c.SimEnd)
				net.Engine.Drain()
			}
			if err := net.InjectErr(); err != nil {
				t.Fatal(err)
			}
			if err := net.FinalCheck(); err != nil {
				t.Fatal(err)
			}
			samples := 0
			net.Tracer().Metrics().Each(func(s *trace.TimeSeries) {
				samples += s.Bins()
				fmt.Fprintf(stream, "%s:", s.Name())
				for i := 0; i < s.Bins(); i++ {
					fmt.Fprintf(stream, "%g,", s.At(i))
				}
			})
			if chk.Audits == 0 || samples == 0 {
				t.Fatalf("drivers idle: %d audits, %d metric samples", chk.Audits, samples)
			}
			g := dispatchRow{
				executed: net.Engine.Executed, injected: net.InjectedPackets,
				delivered: net.DeliveredPackets, deliveredBytes: net.DeliveredBytes,
			}
			fmt.Fprintf(stream, "%d|%d|%d|%d|%+v", g.executed, g.delivered, chk.Audits, samples, *net.FaultReport())
			g.stream = fmt.Sprintf("%016x", stream.Sum64())
			pinDispatch(t, cell, g)
		})
	}
}
