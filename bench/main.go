// Command bench is the repository's one benchmark: steady-state
// simulated events per second at 64 and 4096 hosts on the serial and
// the windowed runtime, and the sweep daemon's cold and warm request
// path. BENCHMARK.json at the repository root names it; README.md in
// this directory defines every workload and metric.
//
//	go run ./bench -workload corner64 -seed 1 -seconds 8 -trace 0
//	go run ./bench -all -out A.json        # every workload, untraced and traced
//	go run ./bench -agree A.json B.json    # do two result sets agree?
//
// Every repetition of a workload runs in a freshly exec'd child of this
// binary, so set-up time, peak RSS and heap state are per repetition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart is read before anything else runs: a child's set-up
// time counts from here.
var processStart = time.Now()

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 0, "reseeds every traffic generator (0 = the figures' own seeds, 1 and 7)")
		seconds = flag.Int("seconds", 8, "timed seconds to accumulate over repetitions (at least three repetitions run)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		all     = flag.Bool("all", false, "run every workload untraced and traced and print every metric")
		out     = flag.String("out", "", "with -all or -workload: also write the result set (for -agree) to this file")
		agree   = flag.Bool("agree", false, "compare two result-set files: bench -agree A.json B.json")
		list    = flag.Bool("list", false, "list workloads and metrics")
		child   = flag.String("child", "", "internal: run one repetition of the named workload and print its record")
		shards  = flag.Int("child-shards", -1, "internal: override the workload's shard count")
	)
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child, *seed, *trace == 1, *shards)
	case *agree:
		err = agreeFiles(flag.Args())
	case *list:
		printList()
	case *all:
		if err = atRepoRoot(); err == nil {
			err = runAll(*seed, *seconds, *out)
		}
	case *name != "":
		if err = atRepoRoot(); err == nil {
			err = runOne(*name, *seed, *seconds, *trace == 1, *out)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// atRepoRoot refuses to measure from anywhere but the root of the
// repository: the working directory is where the served workload keeps
// its run cache, and the driver's contract runs the command there.
func atRepoRoot() error {
	for _, f := range []string{"go.mod", "BENCHMARK.json"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root (go run ./bench): %w", err)
		}
	}
	return nil
}

// runChild is one repetition: it runs the workload once in this fresh
// process and prints its record as one JSON line.
func runChild(name string, seed int64, traced bool, shards int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var rec childRecord
	if w.sim != nil {
		rec = simChild(w, seed, traced, shards)
	} else {
		// The daemon runs figures by ID, with the figures' own traffic
		// seeds: served has no input to reseed.
		rec = servedChild(traced)
	}
	rec.Workload, rec.Seed, rec.Traced = name, seed, traced
	if rec.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rec)
}
