package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// smallRun returns a fast corner-case-2 run with a cache key.
func smallRun(t *testing.T) Run {
	t.Helper()
	c, err := traffic.Corner(2, 64, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return Run{
		Hosts:    64,
		Policy:   fabric.PolicyRECN,
		Key:      "corner2|test",
		Workload: c.Install,
		Until:    c.SimEnd,
		Bin:      c.SimEnd / 40,
	}
}

func TestSpecHashStability(t *testing.T) {
	r := smallRun(t)
	if r.SpecHash() != r.SpecHash() {
		t.Fatal("SpecHash not stable")
	}
	// The hash depends only on the spec, not on the closures.
	q := r
	q.Workload = nil
	if r.SpecHash() != q.SpecHash() {
		t.Error("SpecHash depends on the Workload closure")
	}
	// Every declarative field participates.
	mutations := map[string]func(*Run){
		"Hosts":      func(r *Run) { r.Hosts = 256 },
		"Policy":     func(r *Run) { r.Policy = fabric.Policy1Q },
		"PacketSize": func(r *Run) { r.PacketSize = 512 },
		"Key":        func(r *Run) { r.Key = "corner2|saqs=1" },
		"Until":      func(r *Run) { r.Until++ },
		"Bin":        func(r *Run) { r.Bin++ },
		"DrainAll":   func(r *Run) { r.DrainAll = true },
		"FaultSpec":  func(r *Run) { r.FaultSpec = "seed=3,drop=token:1" },
		"Recovery":   func(r *Run) { r.Recovery.Enabled = true },
		"Windows":    func(r *Run) { r.LatencyWindows = []Window{{0, r.Until}} },
		"Shards":     func(r *Run) { r.Shards = 2 },
	}
	for name, mutate := range mutations {
		q := r
		mutate(&q)
		if q.SpecHash() == r.SpecHash() {
			t.Errorf("mutating %s does not change SpecHash", name)
		}
	}
}

func TestDerivedSeedStableAndNonNegative(t *testing.T) {
	r := smallRun(t)
	if s := r.DerivedSeed(); s < 0 || s != r.DerivedSeed() {
		t.Fatalf("DerivedSeed = %d (want stable, non-negative)", s)
	}
	q := r
	q.Policy = fabric.Policy1Q
	if q.DerivedSeed() == r.DerivedSeed() {
		t.Error("different specs share a derived seed")
	}
}

// A FaultSpec seed of "auto" resolves to the spec-derived seed, so the
// same spec always injects the same fault stream regardless of how the
// sweep schedules it.
func TestFaultSpecAutoSeed(t *testing.T) {
	r := smallRun(t)
	r.FaultSpec = "seed=auto,droprate=credit:0.2"
	r.DrainAll = true
	res1, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Faults == nil || res1.Faults.InjectedFaults() == 0 {
		t.Fatal("auto-seeded plan injected nothing")
	}
	if !reflect.DeepEqual(res1.Report(), res2.Report()) {
		t.Error("auto-seeded runs of the same spec diverged")
	}
}

func TestSweepRejectsNegativeParallelism(t *testing.T) {
	if _, err := Sweep(nil, Options{Parallelism: -1}); err == nil {
		t.Fatal("Sweep(Parallelism: -1) accepted")
	}
}

// Sweep returns the error of the lowest-indexed failing run, so error
// output is deterministic under any parallelism.
func TestSweepDeterministicError(t *testing.T) {
	runs := []Run{
		{Hosts: 63, Policy: fabric.PolicyRECN, Until: sim.Microsecond}, // bad host count
		{Hosts: 64, Policy: fabric.Policy1Q},                           // no horizon
	}
	for _, par := range []int{1, 2} {
		_, err := Sweep(runs, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: bad runs accepted", par)
		}
		if !strings.Contains(err.Error(), "RECN run") {
			t.Errorf("parallelism %d: got index-nondeterministic error %q", par, err)
		}
	}
}

// The determinism contract extended to the parallel path: a cached run
// replays to the same stats.Report as a fresh simulation.
func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := smallRun(t)
	fresh, err := Sweep([]Run{run}, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := cache.Load(run)
	if !ok {
		t.Fatal("run not cached after Sweep")
	}
	if !reflect.DeepEqual(fresh[0].Report(), cached.Report()) {
		t.Fatalf("cached report differs:\nfresh:  %+v\ncached: %+v", fresh[0].Report(), cached.Report())
	}
	if cached.Policy != run.Policy {
		t.Errorf("cached policy %v, want %v", cached.Policy, run.Policy)
	}
	// Prove the second Sweep is actually served from the cache: tamper
	// with the stored entry (keeping it structurally valid) and watch
	// the tampered value come back.
	tamperEntry(t, cache.path(run), func(rep *stats.Report) { rep.Injected = 424242 })
	again, err := Sweep([]Run{run}, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Injected != 424242 {
		t.Errorf("Sweep did not read the cache (Injected = %d)", again[0].Injected)
	}
	// NoCache bypasses it and re-simulates the true value.
	bypass, err := Sweep([]Run{run}, Options{CacheDir: dir, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if bypass[0].Injected != fresh[0].Injected {
		t.Errorf("NoCache run Injected = %d, want %d", bypass[0].Injected, fresh[0].Injected)
	}
}

// tamperEntry rewrites a cache entry's report in place, recomputing
// the checksum so the entry stays valid.
func tamperEntry(t *testing.T, path string, mutate func(*stats.Report)) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entry cacheEntry
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	var rep stats.Report
	if err := json.Unmarshal(entry.Report, &rep); err != nil {
		t.Fatal(err)
	}
	mutate(&rep)
	entry.Report, err = json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	entry.Sum = checksum(entry.Report)
	raw, err = json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Mutating any field of the spec — including an ablation Mutate (via
// Key) and a fault plan — misses the cache.
func TestCacheMissesOnSpecChange(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := smallRun(t)
	res, err := base.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(base, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load(base); !ok {
		t.Fatal("stored run does not load")
	}
	mutants := map[string]Run{}
	for name, mutate := range map[string]func(*Run){
		"policy":      func(r *Run) { r.Policy = fabric.PolicyVOQsw },
		"hosts":       func(r *Run) { r.Hosts = 256 },
		"packet size": func(r *Run) { r.PacketSize = 512 },
		"horizon":     func(r *Run) { r.Until *= 2 },
		"bin":         func(r *Run) { r.Bin *= 2 },
		"drain":       func(r *Run) { r.DrainAll = true },
		"fault plan":  func(r *Run) { r.FaultSpec = "seed=9,droprate=token:0.1" },
		"recovery":    func(r *Run) { r.Recovery.Enabled = true },
		"mutate (ablation key)": func(r *Run) {
			r.Key = "corner2|saqs=1"
			r.Mutate = func(cfg *fabric.Config) { cfg.RECN.MaxSAQs = 1 }
		},
	} {
		q := base
		mutate(&q)
		mutants[name] = q
	}
	for name, q := range mutants {
		if _, ok := cache.Load(q); ok {
			t.Errorf("mutated spec (%s) hit the cache", name)
		}
	}
}

// Uncacheable runs — live fault plans, tracing, closures with no Key —
// are never stored or served.
func TestCacheSkipsUncacheableRuns(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := smallRun(t)
	res, err := base.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Run){
		"no key": func(r *Run) { r.Key = "" },
	} {
		q := base
		mutate(&q)
		if err := cache.Store(q, res); err != nil {
			t.Fatalf("%s: Store errored: %v", name, err)
		}
		if _, ok := cache.Load(q); ok {
			t.Errorf("uncacheable run (%s) served from cache", name)
		}
	}
}

// The latency tables cache like every other figure: reproducing one a
// second time on the same cache simulates nothing and renders the same
// bytes.
func TestLatencyFigServedFromCache(t *testing.T) {
	var sums []CacheSummary
	o := Options{
		Scale:          0.02,
		CacheDir:       t.TempDir(),
		OnCacheSummary: func(s CacheSummary) { sums = append(sums, s) },
	}
	first, err := Reproduce("lat1", o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Reproduce("lat1", o)
	if err != nil {
		t.Fatal(err)
	}
	if RenderTables(first) != RenderTables(second) {
		t.Errorf("cached lat1 differs:\n%s\nvs\n%s", RenderTables(first), RenderTables(second))
	}
	if len(sums) != 2 || sums[0].Misses != 3 || sums[1].Misses != 0 || sums[1].Hits != 3 {
		t.Errorf("cache summaries %+v, want 3 misses then 3 hits", sums)
	}
}

// Corrupt or truncated cache entries are detected and re-simulated,
// never trusted.
func TestCacheRejectsCorruptEntries(t *testing.T) {
	run := smallRun(t)
	fresh, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit flip":  func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b },
		"empty":     func(b []byte) []byte { return nil },
		"garbage":   func(b []byte) []byte { return []byte("not json at all") },
	}
	for name, corrupt := range corruptions {
		dir := t.TempDir()
		cache, err := OpenRunCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Store(run, fresh); err != nil {
			t.Fatal(err)
		}
		path := cache.path(run)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Load(run); ok {
			t.Errorf("%s entry served from cache", name)
			continue
		}
		// The sweep transparently re-simulates and repairs the entry.
		res, err := Sweep([]Run{run}, Options{CacheDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(res[0].Report(), fresh.Report()) {
			t.Errorf("%s: re-simulated report differs", name)
		}
		if _, ok := cache.Load(run); !ok {
			t.Errorf("%s: entry not repaired after re-simulation", name)
		}
	}
}

// The cache version is derived from the model's pins: re-recording a
// dispatch row without moving cacheVersion would let entries computed
// by the old model be served as the new model's results.
func TestCacheVersionIsThePinDigest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", dispatchGoldenFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := checksum(raw); got != cacheVersion {
		t.Errorf("testdata/%s digests to %#016x but cacheVersion is %#016x: set cacheVersion to the new digest (it invalidates every cached run)",
			dispatchGoldenFile, got, cacheVersion)
	}
}

// A version bump must invalidate old entries wholesale.
func TestCacheRejectsOldVersions(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := smallRun(t)
	res, err := run.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Store(run, res); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cache.path(run))
	if err != nil {
		t.Fatal(err)
	}
	var entry cacheEntry
	if err := json.Unmarshal(raw, &entry); err != nil {
		t.Fatal(err)
	}
	entry.Version = cacheVersion - 1
	raw, _ = json.Marshal(entry)
	if err := os.WriteFile(cache.path(run), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Load(run); ok {
		t.Error("stale-version entry served from cache")
	}
}

func TestOpenRunCacheRejectsBadDirs(t *testing.T) {
	if _, err := OpenRunCache(""); err == nil {
		t.Error("empty cache dir accepted")
	}
	file := t.TempDir() + "/plain"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRunCache(file + "/sub"); err == nil {
		t.Error("cache dir under a regular file accepted")
	}
}

// The golden determinism contract: Figures 2–3 and Table 1 rendered
// with Parallelism 1 and 8 are byte-identical, and the per-policy
// series summaries match exactly.
func TestSweepParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	t.Parallel()
	render := func(par int) string {
		o := Options{Scale: 0.05, MaxRows: 24, Parallelism: par}
		var sb strings.Builder
		var tables []*Table
		fig2, err := Fig2(2, o)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, fig2.Table())
		fig3, err := Fig3(20, o)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, fig3.Table())
		tab1, err := Table1()
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tab1)
		sb.WriteString(RenderTables(tables))
		for _, fig := range []*FigThroughput{fig2, fig3} {
			for i, p := range fig.Policies {
				fmt.Fprintf(&sb, "summary %s: %+v\n", p, stats.Summarize(fig.Results[i].Throughput))
			}
		}
		return sb.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Figure 2.b") || !strings.Contains(serial, "Figure 3") {
		t.Fatalf("rendered output incomplete:\n%s", serial)
	}
}

// Table 1 plus ablations through the public sweep entry points stay
// order-stable under parallelism too (ablation rows are reassembled in
// case order).
func TestAblationParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	t.Parallel()
	render := func(par int) string {
		o := Options{Scale: 0.05, Parallelism: par}
		tab, err := AblationSAQCount(o, []int{1, 8})
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	if s1, s4 := render(1), render(4); s1 != s4 {
		t.Fatalf("ablation output differs:\n%s\nvs\n%s", s1, s4)
	}
}
