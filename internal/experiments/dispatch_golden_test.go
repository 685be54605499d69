package experiments

// Determinism regression for the event scheduler: the exact dispatch
// order of the simulator is part of the reproduction contract (the
// serial-vs-parallel sweep goldens, the trace (time, seq) stamps and
// the run cache all assume it is stable). These tests pin the first N
// (time, scheduling-sequence) dispatch pairs and a checksum of the
// final run statistics for the Figure 2 and Figure 3 seed workloads
// against goldens captured from the pre-rewrite container/heap
// scheduler, so any replacement heap must reproduce its order
// bit-identically.
//
// Regenerate with UPDATE_DISPATCH_GOLDEN=1 go test -run DispatchGolden
// ./internal/experiments (only legitimate when the model itself — not
// the scheduler — changes event order).

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// dispatchGolden is the serialized capture of one pinned run.
type dispatchGolden struct {
	// Pairs holds the first maxDispatchPairs dispatched events as
	// (simulation time in ps, scheduling sequence) pairs.
	Pairs [][2]int64 `json:"pairs"`
	// Executed / FinalNow / Injected / Delivered / DeliveredBytes
	// summarize the completed run.
	Executed       uint64 `json:"executed"`
	FinalNow       int64  `json:"final_now_ps"`
	Injected       uint64 `json:"injected_packets"`
	Delivered      uint64 `json:"delivered_packets"`
	DeliveredBytes uint64 `json:"delivered_bytes"`
	// Checksum is an FNV-64a hash over all of the above, including
	// every captured pair.
	Checksum string `json:"checksum"`
	// stream is an FNV-64a hash over every dispatched pair (not only
	// the first maxDispatchPairs) followed by Executed and Delivered:
	// the per-policy pin's cell digest.
	stream string
}

const maxDispatchPairs = 5000

func (g *dispatchGolden) seal() {
	h := fnv.New64a()
	for _, p := range g.Pairs {
		fmt.Fprintf(h, "%d:%d;", p[0], p[1])
	}
	fmt.Fprintf(h, "%d|%d|%d|%d|%d", g.Executed, g.FinalNow, g.Injected, g.Delivered, g.DeliveredBytes)
	g.Checksum = fmt.Sprintf("%016x", h.Sum64())
}

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

// captureDispatch mirrors Run.Execute's network construction with a
// dispatch probe attached, running the workload to the horizon.
func captureDispatch(t *testing.T, topo fabric.Topology, policy fabric.Policy, mutate func(*fabric.Config),
	workload func(traffic.Network) error, until sim.Time) *dispatchGolden {
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
	g := &dispatchGolden{}
	stream := fnv.New64a()
	var buf [16]byte
	net.Engine.SetDispatchProbe(func(at sim.Time, seq uint64) {
		if len(g.Pairs) < maxDispatchPairs {
			g.Pairs = append(g.Pairs, [2]int64{int64(at), int64(seq)})
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(at))
		binary.LittleEndian.PutUint64(buf[8:], seq)
		stream.Write(buf[:])
	})
	if err := workload(net.Traffic()); err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(until)
	if err := net.InjectErr(); err != nil {
		t.Fatal(err)
	}
	g.Executed = net.Engine.Executed
	g.FinalNow = int64(net.Engine.Now())
	g.Injected = net.InjectedPackets
	g.Delivered = net.DeliveredPackets
	g.DeliveredBytes = net.DeliveredBytes
	g.seal()
	fmt.Fprintf(stream, "%d|%d", g.Executed, g.Delivered)
	g.stream = fmt.Sprintf("%016x", stream.Sum64())
	return g
}

func checkDispatchGolden(t *testing.T, name string, got *dispatchGolden) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_DISPATCH_GOLDEN") != "" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d pairs, checksum %s)", path, len(got.Pairs), got.Checksum)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with UPDATE_DISPATCH_GOLDEN=1): %v", path, err)
	}
	var want dispatchGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got.Checksum != want.Checksum {
		// Find the first diverging pair for a useful failure message.
		n := len(want.Pairs)
		if len(got.Pairs) < n {
			n = len(got.Pairs)
		}
		for i := 0; i < n; i++ {
			if got.Pairs[i] != want.Pairs[i] {
				t.Fatalf("dispatch order diverged at event %d: got (t=%d, seq=%d), want (t=%d, seq=%d)",
					i, got.Pairs[i][0], got.Pairs[i][1], want.Pairs[i][0], want.Pairs[i][1])
			}
		}
		t.Fatalf("dispatch checksum %s != golden %s (pairs identical through %d; executed %d vs %d, delivered %d vs %d)",
			got.Checksum, want.Checksum, n, got.Executed, want.Executed, got.Delivered, want.Delivered)
	}
}

// TestDispatchGoldenFig2 pins the scheduler's dispatch order on the
// Figure 2 corner-case-1 seed under RECN.
func TestDispatchGoldenFig2(t *testing.T) {
	workload, until, err := CornerWorkload(1, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got := captureDispatch(t, min64(t), fabric.PolicyRECN, nil, workload, until)
	checkDispatchGolden(t, "dispatch_fig2.json", got)
}

// TestDispatchGoldenFig3 pins the dispatch order on the Figure 3 SAN
// trace seed (cello model, compression 20) under RECN.
func TestDispatchGoldenFig3(t *testing.T) {
	workload, until := CelloWorkload(20, 0.25)
	got := captureDispatch(t, min64(t), fabric.PolicyRECN, celloMutate, workload, until)
	checkDispatchGolden(t, "dispatch_fig3.json", got)
}

// policyGoldenFile pins TestDispatchGoldenPolicies: one line per
// (topology, policy) cell, "<topo> <policy> <stream digest> <executed>
// <delivered>".
const policyGoldenFile = "dispatch_policies.txt"

// TestDispatchGoldenPolicies pins the complete dispatch stream of every
// policy on every topology: corner case 2 on 64 hosts, its hotspot
// moved to 2–30 µs of a 40 µs run. The window is long enough for each
// mechanism's own machinery to act (SAQs, ECN marks, steering hints),
// so no two cells share a digest; at the shorter horizon of scale 0.01
// RECN, throttle and arn all hash equal to 1Q. -short runs the MIN row.
func TestDispatchGoldenPolicies(t *testing.T) {
	c, err := traffic.Corner(2, 64, 64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	c.HotStart, c.HotEnd, c.SimEnd = 2*sim.Microsecond, 30*sim.Microsecond, 40*sim.Microsecond
	topos := []struct {
		name  string
		build func() (fabric.Topology, error)
	}{
		{"min", func() (fabric.Topology, error) { return topology.ForHosts(64) }},
		{"fattree", func() (fabric.Topology, error) { return topology.NewFatTree(64) }},
		{"mesh", func() (fabric.Topology, error) { return topology.NewMesh(8, 8) }},
	}
	if testing.Short() {
		topos = topos[:1]
	}
	path := filepath.Join("testdata", policyGoldenFile)
	update := os.Getenv("UPDATE_DISPATCH_GOLDEN") != ""
	want := map[string]string{}
	var mu sync.Mutex
	if update {
		if testing.Short() {
			t.Fatal("regenerate the per-policy golden without -short")
		}
		// Subtests run in parallel, so the file is written once they
		// have all finished.
		t.Cleanup(func() {
			lines := make([]string, 0, len(want))
			for _, l := range want {
				lines = append(lines, l)
			}
			sort.Strings(lines)
			data := "# TestDispatchGoldenPolicies: <topo> <policy> <stream digest> <executed> <delivered>\n" +
				strings.Join(lines, "\n") + "\n"
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("missing golden %s (regenerate with UPDATE_DISPATCH_GOLDEN=1): %v", path, err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fs := strings.Fields(sc.Text()); len(fs) == 5 && !strings.HasPrefix(fs[0], "#") {
				want[fs[0]+" "+fs[1]] = sc.Text()
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tp := range topos {
		for _, p := range fabric.Policies {
			key := tp.name + " " + p.String()
			t.Run(tp.name+"/"+p.String(), func(t *testing.T) {
				t.Parallel()
				topo, err := tp.build()
				if err != nil {
					t.Fatal(err)
				}
				g := captureDispatch(t, topo, p, nil, c.Install, c.SimEnd)
				line := fmt.Sprintf("%s %s %d %d", key, g.stream, g.Executed, g.Delivered)
				mu.Lock()
				defer mu.Unlock()
				if update {
					want[key] = line
					return
				}
				if want[key] != line {
					t.Fatalf("dispatch stream moved:\n got  %s\n want %s", line, want[key])
				}
			})
		}
	}
}
