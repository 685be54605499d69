package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/stats"
)

// ErrCanceled is the typed error a sweep (or a single run) returns when
// its context is canceled or times out. Detect it with errors.Is; the
// results slice returned alongside it holds every run that completed
// before the cancellation (unfinished slots are nil).
var ErrCanceled = errors.New("canceled")

// This file is the sweep engine: every figure, table and ablation is a
// list of independent Runs, and Sweep fans them across a worker pool.
// Each worker builds its own sim.Engine, fabric and RNG streams (all
// seeds are functions of the run spec, never of submission order), so
// the results — reassembled in spec order — are byte-identical to the
// serial path. An optional on-disk cache keyed by a stable hash of the
// run spec lets a re-plotted figure re-simulate only the runs whose
// spec actually changed.

// SpecKey returns the canonical description of the run's spec: every
// declarative field plus Key, which names the non-declarative parts
// (Workload and Mutate closures). Two runs with equal spec keys produce
// identical results, so the key — through its hash — is the identity
// the result cache and derived seeding use.
func (r Run) SpecKey() string {
	k := fmt.Sprintf("v1|key=%s|hosts=%d|policy=%s|pkt=%d|until=%d|bin=%d|drain=%t|faults=%s|recovery=%+v",
		r.Key, r.Hosts, r.Policy, r.PacketSize, int64(r.Until), int64(r.Bin), r.DrainAll, r.FaultSpec, r.Recovery)
	// Policy-tunable specs are appended only when set, so every key (and
	// with it every cache entry and derived seed) from before these
	// policies existed is reproduced verbatim.
	if r.ThrottleSpec != "" {
		k += "|thr=" + r.ThrottleSpec
	}
	if r.ARNSpec != "" {
		k += "|arn=" + r.ARNSpec
	}
	// The topology marker follows the same append-only rule: the default
	// ("" = MIN) leaves every pre-existing key — and with it every cache
	// entry and derived seed — byte-identical.
	if r.Topo != "" {
		k += "|topo=" + r.Topo
	}
	// So do the latency windows, and the windowed runtime: its results
	// are identical at every shard count ≥ 1 but differ from the serial
	// engine's, so one marker for all counts keeps the two apart.
	for _, w := range r.LatencyWindows {
		k += fmt.Sprintf("|lat=%d:%d", int64(w.From), int64(w.To))
	}
	if r.Shards > 0 {
		k += "|windowed"
	}
	return k
}

// SpecHash returns a stable 64-bit FNV-1a hash of SpecKey. It names
// the run's cache entry and seeds the run's derived RNG streams; it
// depends only on the spec, never on submission or completion order.
func (r Run) SpecHash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.SpecKey()))
	return h.Sum64()
}

// DerivedSeed returns the run's spec-derived RNG seed (non-negative).
// A FaultSpec of "seed=auto,…" uses it, so every run of a sweep gets
// its own deterministic fault stream without manual seed bookkeeping.
func (r Run) DerivedSeed() int64 {
	return int64(r.SpecHash() & (1<<63 - 1))
}

// cacheable reports whether the run's result may be stored in and
// loaded from the result cache. Runs carrying live objects that cannot
// be replayed from the spec — a flight recorder, a pre-built
// (single-use) fault plan — or closures not named by Key must always
// simulate. Checked runs also always simulate: serving a cached result
// would silently skip the invariant audits the caller asked for (Check
// is deliberately absent from SpecKey — audits don't change results, so
// a checked run may still *store* nothing but must never shadow an
// unchecked entry either way).
func (r Run) cacheable() bool {
	if r.Trace != nil || r.Faults != nil || r.Check {
		return false
	}
	return r.Key != "" || (r.Workload == nil && r.Mutate == nil)
}

// cacheVersion invalidates every cache entry written by previous
// simulator revisions; bump it whenever a model change alters results
// without altering specs.
const cacheVersion = 1

// RunCache is an on-disk cache of run results keyed by SpecHash. One
// entry is one JSON file holding the spec key (verified on load, so a
// hash collision can never serve the wrong result), a checksum of the
// payload, and the run's stats.Report.
type RunCache struct {
	dir string

	mu         sync.Mutex
	hits       int
	misses     int
	storeFails int
	storeErr   error // first store failure
	// flights single-flights concurrent executions of the same spec:
	// the first caller to miss becomes the leader and simulates, later
	// callers wait on the channel and re-load the stored result. Keyed
	// by SpecHash; entries live only while a simulation is in flight.
	flights map[uint64]chan struct{}
}

// OpenRunCache opens (creating if necessary) a cache directory and
// verifies it is writable, so a bad -cache flag fails before any
// simulation starts.
func OpenRunCache(dir string) (*RunCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: cache dir: %w", err)
	}
	probe := filepath.Join(dir, ".probe")
	if err := os.WriteFile(probe, []byte("ok"), 0o644); err != nil {
		return nil, fmt.Errorf("experiments: cache dir %s not writable: %w", dir, err)
	}
	os.Remove(probe)
	return &RunCache{dir: dir}, nil
}

// Stats returns how many Load calls hit and missed since open.
func (c *RunCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// noteStoreFailure records a failed Store a caller chose not to fail
// on, so the tally still surfaces in the sweep summary.
func (c *RunCache) noteStoreFailure(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeFails++
	if c.storeErr == nil {
		c.storeErr = err
	}
}

// StoreFailures returns how many recorded Store calls failed since
// open, and the first failure.
func (c *RunCache) StoreFailures() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeFails, c.storeErr
}

// joinFlight registers interest in a spec hash. The first caller since
// the last leaveFlight becomes the leader (second result true) and must
// call leaveFlight when its simulation and store are finished; every
// other caller gets a channel that closes at that point.
func (c *RunCache) joinFlight(h uint64) (<-chan struct{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flights == nil {
		c.flights = make(map[uint64]chan struct{})
	}
	if ch, ok := c.flights[h]; ok {
		return ch, false
	}
	ch := make(chan struct{})
	c.flights[h] = ch
	return ch, true
}

// leaveFlight releases a leadership taken via joinFlight, waking every
// waiting duplicate caller.
func (c *RunCache) leaveFlight(h uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.flights[h])
	delete(c.flights, h)
}

func (c *RunCache) path(r Run) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x.json", r.SpecHash()))
}

type cacheEntry struct {
	Version int
	SpecKey string
	Sum     uint64
	Report  json.RawMessage
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Load returns the cached result for a run's spec. Any defect — an
// uncacheable run, a missing, truncated or corrupt entry, a version or
// spec-key mismatch — is a miss: the caller re-simulates, never trusts
// a damaged entry.
func (c *RunCache) Load(r Run) (*Result, bool) {
	res, ok := c.load(r)
	c.mu.Lock()
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return res, ok
}

func (c *RunCache) load(r Run) (*Result, bool) {
	if !r.cacheable() {
		return nil, false
	}
	raw, err := os.ReadFile(c.path(r))
	if err != nil {
		return nil, false
	}
	var entry cacheEntry
	if err := json.Unmarshal(raw, &entry); err != nil {
		return nil, false
	}
	if entry.Version != cacheVersion || entry.SpecKey != r.SpecKey() || entry.Sum != checksum(entry.Report) {
		return nil, false
	}
	var rep stats.Report
	if err := json.Unmarshal(entry.Report, &rep); err != nil || len(rep.Windows) != len(r.LatencyWindows) {
		return nil, false
	}
	res, err := ResultFromReport(r.Policy, rep)
	if err != nil {
		return nil, false
	}
	return res, true
}

// tmpSeq disambiguates concurrent Store temp files: two goroutines
// storing the same spec must never share a temp path, or one's rename
// could publish the other's half-written bytes.
var tmpSeq atomic.Uint64

// Store writes a run's result. Uncacheable runs are skipped silently;
// the write is atomic (per-writer temp file + rename) so a crashed or
// racing writer leaves no truncated entry under the final name, and a
// valid already-stored entry is left untouched (concurrent daemon
// workers and separate processes may store the same spec — results for
// one spec are deterministic, so whichever write landed is correct).
func (c *RunCache) Store(r Run, res *Result) error {
	if !r.cacheable() || res == nil {
		return nil
	}
	if _, ok := c.load(r); ok {
		return nil // a valid entry already exists
	}
	rep, err := json.Marshal(res.Report())
	if err != nil {
		return err
	}
	raw, err := json.Marshal(cacheEntry{
		Version: cacheVersion,
		SpecKey: r.SpecKey(),
		Sum:     checksum(rep),
		Report:  rep,
	})
	if err != nil {
		return err
	}
	path := c.path(r)
	tmp := fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Raw returns the stored entry for a spec hash without needing the Run
// that produced it: the verbatim spec key and the serialized
// stats.Report. Version and checksum are validated like Load; a missing
// or damaged entry is simply absent. This is the daemon's cache-lookup
// surface (GET /v1/runs/{key}).
func (c *RunCache) Raw(hash uint64) (specKey string, report []byte, ok bool) {
	raw, err := os.ReadFile(filepath.Join(c.dir, fmt.Sprintf("%016x.json", hash)))
	if err != nil {
		return "", nil, false
	}
	var entry cacheEntry
	if err := json.Unmarshal(raw, &entry); err != nil {
		return "", nil, false
	}
	if entry.Version != cacheVersion || entry.Sum != checksum(entry.Report) {
		return "", nil, false
	}
	return entry.SpecKey, entry.Report, true
}

// Report converts the result's measurements to the serializable form
// (the trace recorder, being a live object, is not part of it).
func (res *Result) Report() stats.Report {
	rep := stats.Report{
		Throughput:      res.Throughput.Dump(),
		SAQ:             res.SAQ.Dump(),
		Latency:         res.Latency.Dump(),
		Injected:        res.Injected,
		Delivered:       res.Delivered,
		OrderViolations: res.OrderViolations,
		Events:          res.Events,
	}
	for _, w := range res.Windows {
		rep.Windows = append(rep.Windows, w.Dump())
	}
	if res.Faults != nil {
		f := *res.Faults
		rep.Faults = &f
	}
	if res.Mem != nil {
		m := *res.Mem
		rep.Mem = &m
	}
	return rep
}

// ResultFromReport rebuilds a live Result from a serialized report.
func ResultFromReport(policy fabric.Policy, rep stats.Report) (*Result, error) {
	tp, err := rep.Throughput.Restore()
	if err != nil {
		return nil, err
	}
	saq, err := rep.SAQ.Restore()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy:          policy,
		Throughput:      tp,
		SAQ:             saq,
		Latency:         rep.Latency.Restore(),
		Injected:        rep.Injected,
		Delivered:       rep.Delivered,
		OrderViolations: rep.OrderViolations,
		Events:          rep.Events,
	}
	for _, w := range rep.Windows {
		res.Windows = append(res.Windows, w.Restore())
	}
	if rep.Faults != nil {
		f := *rep.Faults
		res.Faults = &f
	}
	if rep.Mem != nil {
		m := *rep.Mem
		res.Mem = &m
	}
	return res, nil
}

// CacheSummary is one sweep's run-cache accounting, delivered through
// Options.OnCacheSummary. StoreFailures counts results that simulated
// correctly but could not be written back (the sweep does not fail on
// those — see executeCached — so this is where they surface).
type CacheSummary struct {
	Hits, Misses  int
	StoreFailures int
	FirstStoreErr error
}

// Sweep executes independent runs across a worker pool and returns
// their results in spec (submission) order, so rendering the results
// is byte-identical regardless of Parallelism. Options.Parallelism
// sets the worker count (0 = GOMAXPROCS, 1 = serial); with
// Options.CacheDir set (and NoCache unset), results load from and
// store to the run cache. On failure the error of the lowest-indexed
// failing run is returned, which keeps error output deterministic too.
// With Options.Context set it is cancellable — see SweepContext.
func Sweep(runs []Run, o Options) ([]*Result, error) {
	return SweepContext(o.Context, runs, o)
}

// SweepContext is Sweep under an explicit context (which wins over
// Options.Context). When ctx is canceled or times out, the sweep stops
// scheduling new runs, interrupts in-flight serial runs at the next
// cancellation check, and returns the results completed so far
// alongside an error matching errors.Is(err, ErrCanceled); unfinished
// slots of the results slice are nil.
func SweepContext(ctx context.Context, runs []Run, o Options) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := o.Parallelism
	if n < 0 {
		return nil, fmt.Errorf("experiments: parallelism %d (want ≥ 1, or 0 for GOMAXPROCS)", n)
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > len(runs) {
		n = len(runs)
	}
	cache := o.Cache
	if o.NoCache {
		cache = nil
	} else if cache == nil && o.CacheDir != "" {
		var err error
		cache, err = OpenRunCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
	}
	if cache != nil && o.OnCacheSummary != nil {
		// Deferred so the summary — including store failures, which
		// do not fail the sweep — reaches the caller on every exit
		// path. With a shared Options.Cache the tallies are cumulative
		// across every sweep on that cache.
		c := cache
		defer func() {
			hits, misses := c.Stats()
			fails, ferr := c.StoreFailures()
			o.OnCacheSummary(CacheSummary{
				Hits: hits, Misses: misses,
				StoreFailures: fails, FirstStoreErr: ferr,
			})
		}()
	}
	results := make([]*Result, len(runs))
	done := func(i int, res *Result, cached bool) {
		if o.OnRunDone != nil {
			o.OnRunDone(i, runs[i], res, cached)
		}
	}
	if n <= 1 {
		for i, r := range runs {
			if ctx.Err() != nil {
				return results, fmt.Errorf("experiments: sweep interrupted after %d/%d runs: %w", i, len(runs), ErrCanceled)
			}
			res, cached, err := executeCached(ctx, r, cache)
			if err != nil {
				if errors.Is(err, ErrCanceled) {
					return results, fmt.Errorf("experiments: %v run: %w", r.Policy, err)
				}
				return nil, fmt.Errorf("experiments: %v run: %w", r.Policy, err)
			}
			results[i] = res
			done(i, res, cached)
		}
		return results, nil
	}
	errs := make([]error, len(runs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var cached bool
				results[i], cached, errs[i] = executeCached(ctx, runs[i], cache)
				if errs[i] == nil {
					done(i, results[i], cached)
				}
			}
		}()
	}
feed:
	for i := range runs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// A real run failure wins over cancellation (lowest index first, so
	// error output stays deterministic); canceled runs only surface as
	// the sweep-level ErrCanceled below.
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			return nil, fmt.Errorf("experiments: %v run: %w", runs[i].Policy, err)
		}
	}
	if ctx.Err() != nil {
		return results, fmt.Errorf("experiments: sweep interrupted: %w", ErrCanceled)
	}
	return results, nil
}

// executeCached runs one simulation, consulting the cache first. A
// failed cache write is not a run failure — the result is fresh and
// correct, the next sweep just re-simulates — but it is not silent
// either: the failure is counted and surfaced in the sweep's cache
// summary (a full disk or revoked permission would otherwise quietly
// re-simulate everything forever). Concurrent callers with the same
// spec — parallel sweep workers, or daemon jobs sharing one cache —
// single-flight: one simulates, the rest wait and load the stored
// result. The second return reports whether the result came from the
// cache.
func executeCached(ctx context.Context, r Run, cache *RunCache) (*Result, bool, error) {
	if cache == nil || !r.cacheable() {
		res, err := r.ExecuteContext(ctx)
		return res, false, err
	}
	h := r.SpecHash()
	for {
		if res, ok := cache.Load(r); ok {
			return res, true, nil
		}
		wait, leader := cache.joinFlight(h)
		if !leader {
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, false, fmt.Errorf("experiments: waiting on duplicate spec %016x: %w", h, ErrCanceled)
			}
			// The leader finished (or failed): re-load. A successful
			// store hits; a failed store or failed run misses, and this
			// caller becomes the next leader and simulates itself.
			continue
		}
		res, err := func() (*Result, error) {
			defer cache.leaveFlight(h)
			res, err := r.ExecuteContext(ctx)
			if err != nil {
				return nil, err
			}
			if serr := cache.Store(r, res); serr != nil {
				cache.noteStoreFailure(serr)
			}
			return res, nil
		}()
		return res, false, err
	}
}
