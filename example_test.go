package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// Build the paper's 64-host multistage network with RECN, send a 4 KB
// message plus 10 µs of chatter between a few hosts, run the simulation
// until everything is delivered, and read the basic counters.
func ExampleNewNetwork() {
	// A 64×64 perfect-shuffle MIN: 48 switches with 8 bidirectional
	// ports in 3 stages, RECN congestion management at every port.
	net, err := repro.NewNetwork(64, repro.PolicyRECN)
	if err != nil {
		panic(err)
	}

	// Send a 4 KB message from host 3 to host 60 (it is packetized
	// into 64-byte packets at the NIC).
	if err := net.InjectMessage(3, 60, 4096); err != nil {
		panic(err)
	}

	// Let a few hosts chat for 10 µs of simulated time, one 64-byte
	// message every 128 ns each.
	for h := 0; h < 8; h++ {
		var gen func()
		gen = func() {
			if net.Engine.Now() > 10*repro.Microsecond {
				return
			}
			if err := net.InjectMessage(h, (h+32)%64, 64); err != nil {
				panic(err)
			}
			net.Engine.After(128*repro.Nanosecond, gen)
		}
		net.Engine.Schedule(0, gen)
	}

	// Run the discrete-event simulation until everything is delivered.
	net.Engine.Drain()

	fmt.Println("network:  ", net.Topology())
	fmt.Println("injected: ", net.InjectedPackets, "packets")
	fmt.Println("delivered:", net.DeliveredPackets, "packets")
	fmt.Println("order violations:", net.OrderViolations)
	// All buffers empty, all credits returned, no SAQs allocated.
	fmt.Println("quiesced: ", net.CheckQuiesced() == nil)
	// Output:
	// network:   MIN 64×64 (3 stages × 16 switches, radices [4 4 4])
	// injected:  696 packets
	// delivered: 696 packets
	// order violations: 0
	// quiesced:  true
}

// RECN works on direct networks too (paper §3): the same switch fabric
// and RECN controllers run unchanged on a 2D mesh with dimension-order
// routing. Four corner hosts blast an interior hotspot while row flows
// share the corner-to-column turn switches with them; under 1Q the
// hot flows block the shared row queues, under RECN they are isolated
// in SAQs and the background traffic gets through.
func ExampleNewMeshNetwork() {
	const cols, rows = 8, 8
	const hot = 27 // switch (3,3): an interior hotspot
	const end = 150 * repro.Microsecond

	for _, policy := range []repro.Policy{repro.Policy1Q, repro.PolicyRECN} {
		net, err := repro.NewMeshNetwork(cols, rows, policy)
		if err != nil {
			panic(err)
		}
		if policy == repro.Policy1Q {
			fmt.Println(net.Topology())
		}
		// flow injects 64-byte messages from src to dst every gap
		// until the end of the window.
		flow := func(src, dst int, gap repro.Time) {
			var gen func()
			gen = func() {
				if net.Engine.Now() > end {
					return
				}
				if err := net.InjectMessage(src, dst, 64); err != nil {
					panic(err)
				}
				net.Engine.After(gap, gen)
			}
			net.Engine.Schedule(0, gen)
		}
		// Hotspot sources at the four corners at 50%: their XY paths
		// converge on (3,3) and form a congestion tree.
		for _, src := range []int{0, 7, 56, 63} {
			flow(src, hot, 128*repro.Nanosecond)
		}
		// Background flows at 33% along rows 0 and 7: they share the
		// input queues of the turn switches (3,0) and (3,7) with the
		// hot flows.
		for _, pair := range [][2]int{{1, 6}, {2, 5}, {57, 62}, {58, 61}} {
			flow(pair[0], pair[1], 192*repro.Nanosecond)
		}
		var hotBytes, bgBytes uint64
		net.OnDeliver = func(p *repro.Packet) {
			if p.Dst == hot {
				hotBytes += uint64(p.Size)
			} else {
				bgBytes += uint64(p.Size)
			}
		}
		peak := 0
		var poll func()
		poll = func() {
			if total, _, _ := net.SAQUsage(); total > peak {
				peak = total
			}
			if net.Engine.Now() < end {
				net.Engine.After(repro.Microsecond, poll)
			}
		}
		net.Engine.Schedule(0, poll)
		net.Engine.Run(end)
		fmt.Printf("%-4s hot %d B, background %d B, peak %d SAQs\n", policy, hotBytes, bgBytes, peak)
		net.Engine.Drain()
		if err := net.CheckQuiesced(); err != nil {
			panic(err)
		}
	}
	// Output:
	// mesh 8×8 (64 switches, 1 host each, XY routing)
	// 1Q   hot 148992 B, background 170752 B, peak 0 SAQs
	// RECN hot 148992 B, background 182208 B, peak 26 SAQs
}

// List the queuing mechanisms in the paper's presentation order; each
// name parses back to its Policy.
func ExampleParsePolicy() {
	var names []string
	for _, p := range repro.Policies {
		q, err := repro.ParsePolicy(p.String())
		if err != nil || q != p {
			panic(fmt.Sprint(p, " does not parse back: ", q, err))
		}
		names = append(names, p.String())
	}
	fmt.Println(strings.Join(names, " "))
	// Output:
	// VOQnet 1Q VOQsw 4Q RECN throttle arn
}

// Reproduce the paper's Table 1 (no simulation needed).
func ExampleReproduce() {
	tables, err := repro.Reproduce("table1", repro.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(tables[0].Rows), "rows")
	// Output: 4 rows
}

// The paper's core phenomenon (Fig. 2.a) at small scale: while 16
// sources blast host 32 in the middle of corner case 1, a single queue
// per port (1Q) suffers head-of-line blocking, while RECN isolates the
// congested flows in dynamically allocated SAQs and delivers more,
// closer to VOQnet's ideal of one queue per destination. At 3% of the
// paper's run length the gaps are small; `recnsim -fig 2a` shows the
// full-length collapse.
func ExampleRun_hotspot() {
	const scale = 0.03 // compress the paper's 1600 µs run to 48 µs
	for _, policy := range []repro.Policy{repro.PolicyVOQnet, repro.Policy1Q, repro.PolicyRECN} {
		c, err := repro.Corner(1, 64, 64, scale)
		if err != nil {
			panic(err)
		}
		res, err := repro.Run{
			Hosts:    64,
			Policy:   policy,
			Workload: c.Install,
			Until:    c.SimEnd,
		}.Execute()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6s delivered %d packets, peak %d SAQs\n", policy, res.Delivered, res.SAQ.Peak().Total)
	}
	// Output:
	// VOQnet delivered 17947 packets, peak 0 SAQs
	// 1Q     delivered 17799 packets, peak 0 SAQs
	// RECN   delivered 17811 packets, peak 13 SAQs
}

// The paper's Figure 6 claim: RECN's SAQ requirements do not grow with
// network size, because the number of SAQs a port needs depends only on
// how many congestion trees overlap there. The background load is cut
// to a quarter so that the 256-host point stays cheap.
func ExampleRun_scaling() {
	const scale = 0.02
	for _, hosts := range []int{64, 256} {
		topo, err := repro.NewTopology(hosts)
		if err != nil {
			panic(err)
		}
		c, err := repro.Corner(2, hosts, 64, scale)
		if err != nil {
			panic(err)
		}
		c.RandomRate = 0.25
		res, err := repro.Run{
			Hosts:    hosts,
			Policy:   repro.PolicyRECN,
			Workload: c.Install,
			Until:    c.SimEnd,
		}.Execute()
		if err != nil {
			panic(err)
		}
		peak := res.SAQ.Peak()
		fmt.Printf("%3d hosts, %2d switches in %d stages: peak %d SAQs per port, %d in total\n",
			hosts, topo.NumSwitches(), topo.Levels(), max(peak.MaxIngress, peak.MaxEgress), peak.Total)
	}
	// Output:
	//  64 hosts, 48 switches in 3 stages: peak 1 SAQs per port, 1 in total
	// 256 hosts, 256 switches in 4 stages: peak 1 SAQs per port, 2 in total
}

// The paper assumes a lossless, fault-free fabric. Break that: drop
// RECN control messages, discard 1% of the credits and take a switch
// link down mid-run. The watchdog/recovery layer (token reclaim, Xoff
// retransmit, Xon override, credit resync) still delivers every
// injected packet: faults cost throughput, never delivery.
func ExampleRun_faults() {
	const scale = 0.02
	for _, faulty := range []bool{false, true} {
		c, err := repro.Corner(2, 64, 64, scale)
		if err != nil {
			panic(err)
		}
		run := repro.Run{
			Hosts:    64,
			Policy:   repro.PolicyRECN,
			Workload: c.Install,
			Until:    c.SimEnd,
			DrainAll: true, // drain and verify the quiesce invariants
		}
		label := "clean"
		if faulty {
			label = "faulty"
			// Scripted drops hit the first messages of each kind (the
			// congestion tree's set-up); the credit loss rate keeps
			// hurting it for the rest of the run.
			run.Faults = repro.NewFaultPlan(42).
				Drop(repro.FaultToken, 4).
				Drop(repro.FaultXoff, 2).
				Drop(repro.FaultNotify, 2).
				Rule(repro.FaultCredit, repro.FaultRule{DropProb: 0.01}).
				Flap(repro.LinkFlap{Switch: 0, Port: 4,
					Down: 18 * repro.Microsecond, Up: 20 * repro.Microsecond})
			run.Recovery = repro.DefaultFaultRecovery()
		}
		res, err := run.Execute()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-6s injected %d, delivered %d, all delivered: %v\n",
			label, res.Injected, res.Delivered, res.Injected == res.Delivered)
		if res.Faults != nil {
			fmt.Println("      ", res.Faults)
		}
	}
	// Output:
	// clean  injected 24851, delivered 24851, all delivered: true
	// faulty injected 24851, delivered 24851, all delivered: true
	//        faults{drop_credit=1372 drop_token=1 drop_xoff=1 drop_notify=2 link_downs=1 link_ups=1 saqs_reclaimed=3 credit_resyncs=362 credits_restored=87808}
}

// Flight-record the congestion trees of the hotspot corner case and
// export them: a Chrome trace_event JSON (open it at
// https://ui.perfetto.dev to see every tree as an async span per switch
// port, with per-port SAQ counter tracks below), a plain-text event log
// and a tree lifecycle timeline. The sampled SAQ occupancy series
// implement the same Series interface as the figure tables' meters.
func ExampleRun_tracing() {
	// Record only the congestion-tree events plus Xon/Xoff: the default
	// mask records every packet and credit, whose volume would overwrite
	// the early SAQ allocations in the ring on a longer run.
	mask, err := repro.ParseTraceEvents("tree,flow")
	if err != nil {
		panic(err)
	}
	c, err := repro.Corner(2, 64, 64, 0.02)
	if err != nil {
		panic(err)
	}
	res, err := repro.Run{
		Hosts:    64,
		Policy:   repro.PolicyRECN,
		Workload: c.Install,
		Until:    c.SimEnd,
		Trace: &repro.TraceConfig{
			Events:     mask,
			MetricsBin: 500 * repro.Nanosecond,
		},
	}.Execute()
	if err != nil {
		panic(err)
	}
	rec := res.Trace
	fmt.Println(rec.Total(), "events recorded,", rec.Overwritten(), "overwritten")

	// Every congestion tree the run formed, keyed by its root port.
	trees := rec.Trees()
	allocs := 0
	for _, t := range trees {
		allocs += t.Allocs
	}
	fmt.Println(len(trees), "congestion trees,", allocs, "SAQ allocations")

	// The busiest sampled SAQ series.
	var busiest *repro.TraceSeries
	rec.Metrics().Each(func(s *repro.TraceSeries) {
		if strings.HasSuffix(s.Name(), "/saqs") && (busiest == nil || s.Max() > busiest.Max()) {
			busiest = s
		}
	})
	sum := repro.SummarizeSeries(busiest)
	fmt.Printf("busiest port %s: peak %d SAQs\n", busiest.Name(), int(sum.Max))

	dir, err := os.MkdirTemp("", "recn-trace")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	for _, out := range []struct {
		name  string
		write func(*os.File) error
	}{
		{"trace.json", func(f *os.File) error { return rec.WriteChromeTrace(f) }},
		{"trace.log", func(f *os.File) error { return rec.WriteText(f) }},
		{"trees.txt", func(f *os.File) error { return rec.WriteTrees(f) }},
	} {
		f, err := os.Create(filepath.Join(dir, out.name))
		if err != nil {
			panic(err)
		}
		if err := out.write(f); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		info, err := os.Stat(f.Name())
		if err != nil {
			panic(err)
		}
		fmt.Println("wrote", out.name, "non-empty:", info.Size() > 0)
	}
	// Output:
	// 38 events recorded, 0 overwritten
	// 2 congestion trees, 13 SAQ allocations
	// busiest port sw24.in1/saqs: peak 1 SAQs
	// wrote trace.json non-empty: true
	// wrote trace.log non-empty: true
	// wrote trees.txt non-empty: true
}

// The SAN trace workflow of Figures 3 and 5 on a user-provided trace:
// capture the cello model into a trace file in the recn-trace format
// (recording message generation only, without simulating the fabric),
// read it back (any I/O trace converted to this format works), and
// replay it under RECN at two further time-compression factors.
func ExampleGenerateCelloTrace() {
	trace, err := repro.GenerateCelloTrace(64, 200*repro.Microsecond, 20, 1)
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "recn-trace")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cello.trace")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := repro.WriteTrace(f, trace); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	fmt.Println("wrote", len(trace), "records")

	f, err = os.Open(path)
	if err != nil {
		panic(err)
	}
	loaded, err := repro.ReadTrace(f)
	f.Close()
	if err != nil {
		panic(err)
	}
	fmt.Println("read", len(loaded), "records back")

	for _, cf := range []float64{1, 2} {
		net, err := repro.NewNetwork(64, repro.PolicyRECN)
		if err != nil {
			panic(err)
		}
		if err := repro.ReplayTrace(net, loaded, cf); err != nil {
			panic(err)
		}
		net.Engine.Drain()
		if err := net.InjectErr(); err != nil {
			panic(err)
		}
		fmt.Printf("compression %v: delivered %d packets, %d SAQ allocations, %d order violations\n",
			cf, net.DeliveredPackets, net.RECNStats().Allocs, net.OrderViolations)
	}
	// Output:
	// wrote 160 records
	// read 160 records back
	// compression 1: delivered 12606 packets, 2499 SAQ allocations, 0 order violations
	// compression 2: delivered 12606 packets, 4935 SAQ allocations, 0 order violations
}
