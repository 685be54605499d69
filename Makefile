GO ?= go

.PHONY: all build test race bench chaos-soak chaos-soak-long shard-matrix server-smoke shootout policy-matrix scale-smoke run-selections

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# Every alternative of every -run selection in this Makefile and the CI
# workflow must still name a test in the packages it runs on.
run-selections:
	./scripts/check-run-selections.sh

# The repository's one benchmark (BENCHMARK.json; bench/README.md
# defines every workload and metric): all five workloads into bench.json.
# Compare two result sets from the same box with
# `go run ./bench -agree before.json after.json`.
bench:
	$(GO) run ./bench -all -out bench.json

# Seeded randomized compound fault plans (drops + flaps + corruption +
# delays) under the full runtime invariant checker and the race
# detector. A failing seed is minimized to the smallest still-failing
# fragment set; reproduce any report with `recnsim -faults "<spec>" -check`.
chaos-soak:
	$(GO) test -race -v -run TestChaosSoak ./internal/check/chaos/ -chaos.seeds 16

# The nightly-sized sweep (CI runs this on schedule/manual dispatch).
chaos-soak-long:
	$(GO) test -race -timeout 60m -v -run TestChaosSoak ./internal/check/chaos/ -chaos.seeds 250

# The sweep daemon end-to-end: start recnserved, submit a small figure
# sweep over HTTP, poll to completion, diff the fetched results against
# recnsim's tables, exercise one admission-rejection path and
# the cache-hit resubmit, then SIGTERM-drain (same script CI runs).
server-smoke:
	./scripts/server-smoke.sh

# Render the policy shoot-out: 1Q vs RECN vs throttle vs arn head to
# head over five congestion scenarios (one with compound faults).
# Scale up (-scale 1.0) for paper-length windows.
shootout:
	$(GO) run ./cmd/recnsim -fig shootout -scale 0.25

# The cross-policy determinism battery under the race detector:
# throttle AIMD property tests, the hotspot behavior tests, the policy
# trait table and its memory model, spec validation, shoot-out
# identity + dispatch goldens (the per-policy pin included), and the
# daemon's bad-spec rejections (CI's policy-matrix job runs this target).
policy-matrix:
	$(GO) test -race ./internal/throttle/
	$(GO) test -race -run 'TestThrottle|TestARN|TestPolicyTraits|TestEagerMemStats' ./internal/fabric/
	$(GO) test -race -run 'TestShootout|TestDispatchGolden|TestValidatePolicyOptions|TestOptionsValidate' ./internal/experiments/
	$(GO) test -race -run TestAdmissionBadRequests ./internal/server/

# The memory-scaling smoke: the paged-state equivalence and fat-tree
# battery under the race detector, the 1k-host fat-tree scaling figure
# at -shards 1 vs 4 (byte-identity), and a short chaos soak (which
# samples the fat-tree topology on a quarter of its seeds).
scale-smoke:
	$(GO) test -race -run 'TestFatTree|TestPreTouchedState|TestLazyCAM|TestScaling|TestLazyState|LazyMatchesDense|TestEagerMemStats|TestLazyConstruction|TestSAQCensusMatchesWalk' ./internal/topology/ ./internal/fabric/ ./internal/recn/ ./internal/experiments/
	$(GO) build -o /tmp/recnsim-scale ./cmd/recnsim
	/tmp/recnsim-scale -fig scaling1k -scale 0.02 -q -shards 1 > /tmp/scaling1k-s1.txt
	/tmp/recnsim-scale -fig scaling1k -scale 0.02 -q -shards 4 > /tmp/scaling1k-s4.txt
	cmp /tmp/scaling1k-s1.txt /tmp/scaling1k-s4.txt
	$(GO) test -race -run TestChaosSoak ./internal/check/chaos/ -chaos.seeds 12

# The windowed runtime's bit-identity matrix under the race detector:
# shard validation, report/figure identity across shard counts, the
# periodic-driver pin (serial and windowed), the sharded chaos soak
# (live fault injection on shard goroutines), and a checked trace
# replay through the facade at -shards 1 vs 4.
shard-matrix:
	$(GO) test -race -v -run 'TestShard|TestSweepStoreFailure|TestDispatchGoldenDrivers' ./internal/fabric/ ./internal/experiments/
	$(GO) test -race -v -run TestChaosSoakSharded ./internal/check/chaos/
	$(GO) build -o /tmp/recntrace-shard ./cmd/recntrace
	/tmp/recntrace-shard -gen -duration-us 200 -out /tmp/shard-cello.trace
	/tmp/recntrace-shard -replay /tmp/shard-cello.trace -cf 40 -check -shards 1 > /tmp/replay-s1.txt
	/tmp/recntrace-shard -replay /tmp/shard-cello.trace -cf 40 -check -shards 4 > /tmp/replay-s4.txt
	cmp /tmp/replay-s1.txt /tmp/replay-s4.txt
