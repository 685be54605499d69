package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fabric"
	"repro/internal/traffic"
)

// A run whose context is already canceled must not start at all.
func TestExecuteContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := smallRun(t).ExecuteContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Errorf("got a result from a canceled run")
	}
}

// Canceling mid-run interrupts at the next engine chunk: the workload
// schedules the cancel inside the simulation, a quarter into the
// horizon, so it must be seen well before the horizon.
func TestExecuteContextInterruptsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := smallRun(t)
	install, at := r.Workload, r.Until/4
	r.Workload = func(n traffic.Network) error {
		n.Schedule(at, cancel)
		return install(n)
	}
	res, err := r.ExecuteContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Error("got a result from an interrupted run")
	}
}

// The cancellable execution path chunks the engine horizon; that must
// not change results. Same spec through Execute (one engine run) and
// ExecuteContext with a live-but-never-canceled context (chunked runs)
// must produce identical measurements.
func TestExecuteContextChunkingBitIdentical(t *testing.T) {
	r := smallRun(t)
	serial, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunked, err := r.ExecuteContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Delivered != chunked.Delivered || serial.Injected != chunked.Injected || serial.Events != chunked.Events {
		t.Errorf("chunked run diverged: serial (inj %d, del %d, ev %d) vs chunked (inj %d, del %d, ev %d)",
			serial.Injected, serial.Delivered, serial.Events,
			chunked.Injected, chunked.Delivered, chunked.Events)
	}
}

// A canceled sweep returns ErrCanceled plus the partial results that
// completed before the cancellation.
func TestSweepContextCancelPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs := []Run{smallRun(t), smallRun(t), smallRun(t)}
	runs[1].Key, runs[2].Key = "corner2|test2", "corner2|test3"
	o := Options{Parallelism: 1}
	o.OnRunDone = func(i int, _ Run, _ *Result, _ bool) {
		if i == 0 {
			cancel() // seen before run 1 starts
		}
	}
	results, err := SweepContext(ctx, runs, o)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if results[0] == nil {
		t.Error("run 0 completed before the cancel but its result is missing")
	}
	if results[1] != nil || results[2] != nil {
		t.Error("runs after the cancel still produced results")
	}
}

// Two identical cacheable runs in one parallel sweep must simulate
// exactly once: the duplicate single-flights on the shared cache and is
// served the stored result.
func TestSweepSingleFlightDuplicateSpec(t *testing.T) {
	cache, err := OpenRunCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := traffic.Corner(2, 64, 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var simulated atomic.Int32
	mk := func() Run {
		return Run{
			Hosts:  64,
			Policy: fabric.PolicyRECN,
			Key:    "corner2|flight",
			Workload: func(n traffic.Network) error {
				simulated.Add(1)
				return c.Install(n)
			},
			Until: c.SimEnd,
			Bin:   c.SimEnd / 40,
		}
	}
	var cachedCount atomic.Int32
	o := Options{Parallelism: 2, Cache: cache}
	o.OnRunDone = func(_ int, _ Run, _ *Result, cached bool) {
		if cached {
			cachedCount.Add(1)
		}
	}
	results, err := Sweep([]Run{mk(), mk()}, o)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 1 {
		t.Errorf("duplicate spec simulated %d times, want 1", n)
	}
	if cachedCount.Load() != 1 {
		t.Errorf("cache served %d of the two runs, want 1", cachedCount.Load())
	}
	if results[0] == nil || results[1] == nil {
		t.Fatal("missing results")
	}
	if results[0].Delivered != results[1].Delivered {
		t.Errorf("leader and follower disagree: %d vs %d delivered", results[0].Delivered, results[1].Delivered)
	}
}

// Two goroutines storing the same spec concurrently must never corrupt
// the entry or leave stray temp files: each write uses its own temp
// name and renames atomically, and a valid existing entry is kept.
func TestRunCacheConcurrentStoreSameSpec(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenRunCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := smallRun(t)
	res, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := cache.Store(r, res); err != nil {
					t.Errorf("Store: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := cache.Load(r); !ok {
		t.Fatal("entry invalid after concurrent stores")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(entries) != 1 {
		t.Errorf("cache dir holds %v, want exactly the one entry", names)
	}
	if want := filepath.Base(cache.path(r)); len(entries) == 1 && entries[0].Name() != want {
		t.Errorf("cache dir holds %q, want %q", entries[0].Name(), want)
	}
}
