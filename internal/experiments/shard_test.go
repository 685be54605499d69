package experiments

// Tests of the windowed multi-core runtime's central contract: a run at
// any Shards value ≥ 1 produces bit-identical results — same report,
// same rendered figure bytes — at every other value, because the
// mailbox merge keys are shard-count-invariant (see fabric/window.go).
// The suite also pins the guard rails around the contract: sharded runs
// are deterministic run-to-run and cache under a key of their own.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fabric"
)

// shardReport executes one sharded run and returns its report as
// canonical JSON (series dumps included, so any divergence in any
// meter fails the comparison).
func shardReport(t *testing.T, r Run) string {
	t.Helper()
	res, err := r.Execute()
	if err != nil {
		t.Fatalf("shards=%d: %v", r.Shards, err)
	}
	return reportJSON(t, res)
}

// TestShardReportIdentity: the corner-case hotspot workload, drained to
// empty under the invariant checker, reports identically at shard
// counts 1, 2, 4 and 7 (7 splits the 16-switch stages unevenly, so the
// partition boundaries cut through stages).
func TestShardReportIdentity(t *testing.T) {
	workload, until, err := CornerWorkload(2, 64, 64, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	base := ""
	for _, k := range []int{1, 2, 4, 7} {
		r := Run{
			Hosts: 64, Policy: fabric.PolicyRECN, Key: "shard-identity",
			Workload: workload, Until: until, Shards: k,
			DrainAll: true, Check: true,
		}
		rep := shardReport(t, r)
		if base == "" {
			base = rep
		} else if rep != base {
			t.Fatalf("shards=%d report differs from shards=1", k)
		}
	}
}

// TestShardReportIdentityCello covers the cross-host scheduling path
// (disk replies ride ScheduleRemote mailboxes): the SAN trace workload
// must also be shard-count-invariant.
func TestShardReportIdentityCello(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run cello reproduction")
	}
	workload, until := CelloWorkload(20, 0.05)
	base := ""
	for _, k := range []int{1, 3} {
		r := Run{
			Hosts: 64, Policy: fabric.PolicyRECN, Key: "shard-identity-cello",
			Workload: workload, Until: until, Shards: k, Mutate: celloMutate,
		}
		rep := shardReport(t, r)
		if base == "" {
			base = rep
		} else if rep != base {
			t.Fatalf("shards=%d cello report differs from shards=1", k)
		}
	}
}

// TestShardFigureIdentity renders real figures — the full pipeline
// from sweep through table formatting — at several shard counts and
// requires byte-identical output, the same contract the parallel sweep
// goldens pin for Parallelism.
func TestShardFigureIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run figure reproduction")
	}
	opts := Options{
		Scale:    0.02,
		Policies: []fabric.Policy{fabric.Policy1Q, fabric.PolicyRECN},
	}
	t.Run("fig2", func(t *testing.T) {
		base := ""
		for _, k := range []int{1, 2, 4, 7} {
			o := opts
			o.Shards = k
			fig, err := Fig2(1, o)
			if err != nil {
				t.Fatalf("shards=%d: %v", k, err)
			}
			got := fig.Table().String()
			if base == "" {
				base = got
			} else if got != base {
				t.Fatalf("fig2 rendered bytes differ between shards=1 and shards=%d", k)
			}
		}
	})
	t.Run("fig3", func(t *testing.T) {
		base := ""
		for _, k := range []int{1, 4} {
			o := opts
			o.Scale = 0.05
			o.Shards = k
			fig, err := Fig3(20, o)
			if err != nil {
				t.Fatalf("shards=%d: %v", k, err)
			}
			got := fig.Table().String()
			if base == "" {
				base = got
			} else if got != base {
				t.Fatalf("fig3 rendered bytes differ between shards=1 and shards=%d", k)
			}
		}
	})
}

// TestShardRunDeterminism: the same sharded run executed twice yields
// the same report — the worker goroutines may interleave differently,
// but the window barriers and mailbox keys fully determine the result.
func TestShardRunDeterminism(t *testing.T) {
	workload, until, err := CornerWorkload(1, 64, 64, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	r := Run{
		Hosts: 64, Policy: fabric.PolicyRECN, Key: "shard-determinism",
		Workload: workload, Until: until, Shards: 3, DrainAll: true,
	}
	first := shardReport(t, r)
	second := shardReport(t, r)
	if first != second {
		t.Fatal("identical sharded runs produced different reports")
	}
}

// TestShardLatencyFigIdentity: the latency windows are meters like any
// other, so the latency tables run on the windowed runtime and render
// the same bytes at every shard count.
func TestShardLatencyFigIdentity(t *testing.T) {
	o := Options{Scale: 0.02, Policies: []fabric.Policy{fabric.Policy1Q, fabric.PolicyRECN}}
	base := ""
	for _, k := range []int{1, 2} {
		o.Shards = k
		tab, err := LatencyFig(1, o)
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if got := tab.String(); base == "" {
			base = got
		} else if got != base {
			t.Fatalf("lat1 differs between shards=1 and shards=%d:\n%s\nvs\n%s", k, base, got)
		}
	}
	if !strings.Contains(base, "during") {
		t.Fatalf("lat1 table has no windows:\n%s", base)
	}
}

// TestShardedRunsCacheUnderWindowedKey: a sharded run caches under a key
// of its own — one key for every shard count ≥ 1 (their results are
// identical), never the serial run's (whose results differ) — and the
// serial key is unchanged by the marker.
func TestShardedRunsCacheUnderWindowedKey(t *testing.T) {
	workload, until, err := CornerWorkload(1, 64, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	serial := Run{Hosts: 64, Policy: fabric.PolicyRECN, Key: "sharded-cache", Workload: workload, Until: until}
	s1, s2 := serial, serial
	s1.Shards, s2.Shards = 1, 2
	if !s1.cacheable() {
		t.Fatal("sharded keyed run should be cacheable")
	}
	if strings.Contains(serial.SpecKey(), "windowed") || s1.SpecKey() != serial.SpecKey()+"|windowed" {
		t.Fatalf("spec keys: serial %q, sharded %q", serial.SpecKey(), s1.SpecKey())
	}
	if s1.SpecKey() != s2.SpecKey() {
		t.Fatalf("shard counts 1 and 2 key differently: %q vs %q", s1.SpecKey(), s2.SpecKey())
	}
	cache, err := OpenRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Sweep([]Run{s1}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load(serial); ok {
		t.Fatal("a sharded result was served to the serial spec")
	}
	cached, ok := cache.Load(s2)
	if !ok {
		t.Fatal("the shards=1 entry was not served to shards=2")
	}
	if a, b := reportJSON(t, fresh[0]), reportJSON(t, cached); a != b {
		t.Fatal("cached sharded report differs from the fresh one")
	}
}

func reportJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepStoreFailureSurfaced: a result that simulates correctly but
// cannot be written back must not fail the sweep — and must not be
// silent either. A directory squatting on the entry's final name makes
// the cache's atomic rename fail while the cache dir itself stays
// writable, which is exactly the shape of a mid-sweep disk fault.
func TestSweepStoreFailureSurfaced(t *testing.T) {
	workload, until, err := CornerWorkload(1, 64, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	r := Run{
		Hosts: 64, Policy: fabric.PolicyRECN, Key: "store-failure",
		Workload: workload, Until: until,
	}
	dir := t.TempDir()
	entry := filepath.Join(dir, fmt.Sprintf("%016x.json", r.SpecHash()))
	if err := os.Mkdir(entry, 0o755); err != nil {
		t.Fatal(err)
	}
	var summary CacheSummary
	seen := false
	results, err := Sweep([]Run{r}, Options{
		CacheDir: dir,
		OnCacheSummary: func(s CacheSummary) {
			summary = s
			seen = true
		},
	})
	if err != nil {
		t.Fatalf("store failure must not fail the sweep: %v", err)
	}
	if len(results) != 1 || results[0] == nil {
		t.Fatal("sweep returned no result")
	}
	if !seen {
		t.Fatal("OnCacheSummary was not called")
	}
	if summary.StoreFailures != 1 || summary.FirstStoreErr == nil {
		t.Fatalf("want 1 surfaced store failure, got %+v", summary)
	}
	if summary.Hits != 0 || summary.Misses != 1 {
		t.Fatalf("want 0 hits / 1 miss, got %+v", summary)
	}
}
