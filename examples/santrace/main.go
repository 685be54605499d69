// SAN trace workflow: generate a synthetic cello-style storage trace,
// write it to a file in the recn-trace format, read it back, and replay
// it through the simulator under RECN with a time-compression factor —
// the paper's Figure 3/5 experiment on a user-provided trace.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "recn-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cello.trace")

	// 1. Capture the cello model into a trace file (no simulation of
	//    the fabric yet — we only record message generation).
	trace, err := repro.GenerateCelloTrace(64, 200*repro.Microsecond, 20, 1)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := repro.WriteTrace(f, trace); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("wrote %d records to %s\n", len(trace), path)

	// 2. Read it back (any I/O trace converted to this format works).
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := repro.ReadTrace(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %d records back\n", len(loaded))

	// 3. Replay at two further compression factors under RECN.
	for _, cf := range []float64{1, 2} {
		net, err := repro.NewNetwork(64, repro.PolicyRECN)
		if err != nil {
			log.Fatal(err)
		}
		if err := repro.ReplayTrace(net, loaded, cf); err != nil {
			log.Fatal(err)
		}
		net.Engine.Drain()
		if err := net.InjectErr(); err != nil {
			log.Fatal(err)
		}
		stats := net.RECNStats()
		fmt.Printf("compression %2.0f: delivered %7d packets (%8d bytes), SAQ allocs %4d, in order: %v\n",
			cf, net.DeliveredPackets, net.DeliveredBytes, stats.Allocs, net.OrderViolations == 0)
	}
}
