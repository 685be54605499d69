package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
)

// The served workload: an in-process sweep daemon at its shipped
// defaults (one job worker, run cache on a temporary directory) behind
// a real loopback TCP listener. One cold job fills the run cache; then
// servedRequests identical warm requests come from servedClients
// closed-loop keep-alive clients, each on one connection. Closed loop
// because the daemon's callers are scripts that wait for their reply.
// A request is POST /v1/sweeps → GET …/events (SSE until the job is
// terminal) → GET …/results.
const (
	servedBody     = `{"figures":["2b"],"scale":0.05}`
	servedClients  = 2
	servedRequests = 2400
	// tmpRoot holds the run cache; it lies inside the working directory
	// because the benchmark writes nowhere else.
	tmpRoot = ".bench_tmp"
)

// servedLegs is the wall time of one request's three legs.
type servedLegs struct{ submit, wait, results, total time.Duration }

// daemon is the in-process server and everything to release with it.
type daemon struct {
	srv  *repro.SweepServer
	http *http.Server
	base string
	dir  string
	done chan error // http.Server.Serve's return
}

func startDaemon() (*daemon, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "served-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	if d.srv, err = repro.NewSweepServer(repro.ServerConfig{CacheDir: filepath.Join(dir, "cache")}); err != nil {
		d.close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.base = "http://" + l.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler()}
	d.done = make(chan error, 1)
	go func() { d.done <- d.http.Serve(l) }() // Serve closes l
	return d, nil
}

// close releases listener, connections, job workers and the temporary
// directory, and returns once the serving goroutine has ended. It is
// called on every path, also after a partial start.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if d.http != nil {
		if err := d.http.Shutdown(ctx); err != nil {
			d.http.Close()
		}
		<-d.done
	}
	if d.srv != nil {
		// Every job is terminal by now; the error would be about
		// persisting queued jobs, and none is queued.
		_ = d.srv.Shutdown(ctx)
	}
	os.RemoveAll(d.dir)
	os.Remove(tmpRoot) // only if this was its last user
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do issues one request and returns the whole body; any status outside
// 2xx is an error.
func (c *client) do(method, path string, body string) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// request runs one sweep request end to end and returns the rendered
// result bytes.
func (c *client) request() ([]byte, servedLegs, error) {
	var legs servedLegs
	t0 := time.Now()
	raw, err := c.do("POST", "/v1/sweeps", servedBody)
	if err != nil {
		return nil, legs, err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		return nil, legs, fmt.Errorf("submit: no job id in %q (%v)", raw, err)
	}
	t1 := time.Now()
	// The stream ends when the job is terminal; its last event names
	// the state.
	events, err := c.do("GET", "/v1/sweeps/"+st.ID+"/events", "")
	if err != nil {
		return nil, legs, err
	}
	if i := bytes.LastIndex(events, []byte("event: ")); i < 0 || !bytes.HasPrefix(events[i:], []byte("event: done\n")) {
		return nil, legs, fmt.Errorf("job %s did not finish done: %q", st.ID, lastLine(events))
	}
	t2 := time.Now()
	res, err := c.do("GET", "/v1/sweeps/"+st.ID+"/results", "")
	t3 := time.Now()
	legs = servedLegs{submit: t1.Sub(t0), wait: t2.Sub(t1), results: t3.Sub(t2), total: t3.Sub(t0)}
	return res, legs, err
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// servedChild runs the served operation set in this process: the cold
// job is set-up (it fills the cache the timed region is about), the
// warm loop is the timed region.
func servedChild(traced bool) childRecord {
	rec := childRecord{}
	fail := func(err error) childRecord {
		rec.Attempted++
		rec.Failed++
		rec.Error = err.Error()
		return rec
	}
	var tr *tracer
	if traced {
		tr = newTracer(processStart)
	}

	done := tr.span("server.start")
	d, err := startDaemon()
	if err != nil {
		return fail(err)
	}
	defer d.close()
	clients := make([]*client, servedClients)
	for i := range clients {
		clients[i] = newClient(d.base)
		defer clients[i].close()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err = clients[0].do("GET", "/healthz", ""); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("daemon never answered /healthz: %w", err))
		}
	}
	done()

	done = tr.span("server.cold_job")
	cold, coldLegs, err := clients[0].request()
	done()
	if err != nil {
		return fail(fmt.Errorf("cold job: %w", err))
	}
	rec.Attempted++
	coldEvents, coldRuns, err := cachedEvents(clients[0], filepath.Join(d.dir, "cache"))
	if err != nil {
		return fail(err)
	}
	sum := sha256.Sum256(cold)
	rec.Digest = hex.EncodeToString(sum[:])
	rec.Counts = map[string]uint64{
		"cold_events":  coldEvents,
		"cold_runs":    uint64(coldRuns),
		"result_bytes": uint64(len(cold)),
	}
	heap0 := retainedHeap(traced)
	rec.SetupS = time.Since(processStart).Seconds()

	// The warm loop: the clients split the requests and each sends its
	// next only when the previous one has completed.
	legs := make([][]servedLegs, servedClients)
	failed := make([]int, servedClients)
	firstErr := make([]error, servedClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < servedRequests/servedClients; n++ {
				res, l, err := c.request()
				if err == nil && !bytes.Equal(res, cold) {
					err = fmt.Errorf("warm result differs from the cold job's bytes")
				}
				if err != nil {
					failed[i]++
					if firstErr[i] == nil {
						firstErr[i] = err
					}
					continue
				}
				legs[i] = append(legs[i], l)
			}
		}()
	}
	wg.Wait()
	rec.TimedS = time.Since(t0).Seconds()

	var all []servedLegs
	for i := range legs {
		all = append(all, legs[i]...)
		rec.Failed += failed[i]
		if firstErr[i] != nil && rec.Error == "" {
			rec.Error = firstErr[i].Error()
		}
	}
	rec.Attempted += servedRequests
	rec.Work = uint64(len(all))
	if len(all) == 0 {
		return rec
	}
	pct := func(q float64, leg func(servedLegs) time.Duration) float64 {
		v := make([]float64, len(all))
		for i, l := range all {
			v[i] = float64(leg(l)) / 1e6
		}
		sort.Float64s(v)
		return v[min(len(v)-1, int(q*float64(len(v))))]
	}
	total := func(l servedLegs) time.Duration { return l.total }
	rec.LatencyMs = pct(0.5, total)
	// p99 has servedRequests/100 samples beyond it: the highest
	// percentile this sample supports with at least ten.
	rec.Layer = map[string]float64{
		"server.cold_job_s":  coldLegs.total.Seconds(),
		"server.req_per_s":   float64(len(all)) / rec.TimedS,
		"server.req_p50_ms":  rec.LatencyMs,
		"server.req_p99_ms":  pct(0.99, total),
		"server.submit_ms":   pct(0.5, func(l servedLegs) time.Duration { return l.submit }),
		"server.wait_ms":     pct(0.5, func(l servedLegs) time.Duration { return l.wait }),
		"server.results_ms":  pct(0.5, func(l servedLegs) time.Duration { return l.results }),
		"server.cold_events": float64(coldEvents),
	}
	if traced {
		rec.Layer["server.start_s"] = dur(tr.spans, "server.start")
		rec.Layer["server.retained_kb_per_job"] = float64(retainedHeap(true)-heap0) / 1024 / float64(len(all))
		rec.Spans = tr.spans
	}
	return rec
}

// retainedHeap returns the live heap after a collection (0 when the run
// is untraced: forcing collections is an observer's cost).
func retainedHeap(traced bool) int64 {
	if !traced {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cachedEvents sums the simulated events behind the cold job: it reads
// each run the job stored in the cache back through the daemon's
// GET /v1/runs/{hash}. The count repeats exactly and says how much
// simulation the cold path covered.
func cachedEvents(c *client, cacheDir string) (events uint64, runs int, err error) {
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		hash, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || len(hash) != 16 {
			continue
		}
		raw, err := c.do("GET", "/v1/runs/"+hash, "")
		if err != nil {
			return 0, 0, err
		}
		var rep repro.RunReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return 0, 0, fmt.Errorf("cached run %s: %w", hash, err)
		}
		events += rep.Events
		runs++
	}
	if runs == 0 {
		return 0, 0, fmt.Errorf("the cold job stored no run in %s", cacheDir)
	}
	return events, runs, nil
}
