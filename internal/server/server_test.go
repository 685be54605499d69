package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fabric"
)

// stubRunner is a controllable stand-in for experiments.Reproduce: it
// records execution order and can hold jobs until released, so the
// queue's admission and FIFO behavior is testable without simulating.
type stubRunner struct {
	mu    sync.Mutex
	order []string
	hold  map[string]chan struct{} // figure ID -> release gate
}

func newStubRunner() *stubRunner {
	return &stubRunner{hold: make(map[string]chan struct{})}
}

// gate makes runs of a figure block until release is called.
func (s *stubRunner) gate(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hold[id] = make(chan struct{})
}

func (s *stubRunner) release(id string) {
	s.mu.Lock()
	ch := s.hold[id]
	delete(s.hold, id)
	s.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (s *stubRunner) run(id string, o experiments.Options) ([]*experiments.Table, error) {
	s.mu.Lock()
	s.order = append(s.order, id)
	ch := s.hold[id]
	s.mu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-o.Context.Done():
			return nil, fmt.Errorf("stub %s: %w", id, experiments.ErrCanceled)
		}
	}
	t := &experiments.Table{Title: "stub " + id, Header: []string{"figure"}}
	t.AddRow(id)
	return []*experiments.Table{t}, nil
}

func (s *stubRunner) ran() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := testContext(5 * time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func testContext(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func submit(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func errorCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error envelope in %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

func getStatus(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitState polls until the job reaches the state (or fails the test).
// The deadline is generous: the golden test simulates for real, and the
// race detector slows that by an order of magnitude.
func waitState(t *testing.T, ts *httptest.Server, id, state string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st["state"] == state {
			return st
		}
		if terminal(jobState(st["state"].(string))) && st["state"] != state {
			t.Fatalf("job %s reached %v, want %s (error: %v)", id, st["state"], state, st["error"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, state)
	return nil
}

func TestAdmissionQueueFullRejection(t *testing.T) {
	stub := newStubRunner()
	stub.gate("2a")
	_, ts := newTestServer(t, Config{QueueCap: 1, Workers: 1, MaxRunsPerJob: 100, reproduce: stub.run})
	defer stub.release("2a")

	// First job occupies the worker...
	code, body := submit(t, ts, `{"figures":["2a"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %v", code, body)
	}
	waitState(t, ts, body["id"].(string), "running")
	// ...second fills the one queue slot...
	if code, body = submit(t, ts, `{"figures":["2b"]}`); code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %v", code, body)
	}
	// ...third must be rejected with the typed structured error.
	code, body = submit(t, ts, `{"figures":["2c"]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit 3: %d %v, want 429", code, body)
	}
	if got := errorCode(t, body); got != "queue_full" {
		t.Errorf("error code %q, want queue_full", got)
	}
}

func TestAdmissionOversizedRequestRejection(t *testing.T) {
	stub := newStubRunner()
	_, ts := newTestServer(t, Config{MaxRunsPerJob: 3, reproduce: stub.run})
	code, body := submit(t, ts, `{"figures":["2a"]}`) // estimated 5 runs
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("got %d %v, want 413", code, body)
	}
	if got := errorCode(t, body); got != "too_many_runs" {
		t.Errorf("error code %q, want too_many_runs", got)
	}
	if len(stub.ran()) != 0 {
		t.Error("rejected job still executed")
	}
}

func TestAdmissionBadRequests(t *testing.T) {
	stub := newStubRunner()
	_, ts := newTestServer(t, Config{reproduce: stub.run})
	for _, tc := range []struct{ name, body, names string }{
		{"empty figures", `{"figures":[]}`, "figures"},
		{"unknown figure", `{"figures":["9z"]}`, "figures"},
		{"unknown field", `{"figs":["2a"]}`, "figs"},
		{"daemon-owned option", `{"figures":["2a"],"parallelism":8}`, "parallelism"},
		{"daemon-owned path", `{"figures":["2a"],"cache_dir":"/x"}`, "cache_dir"},
		{"bad policy", `{"figures":["2a"],"policies":["QQQ"]}`, "QQQ"},
		{"negative scale", `{"figures":["2a"],"scale":-1}`, "scale"},
		{"bad throttle key", `{"figures":["shootout"],"throttle_spec":"bogus=1"}`, "throttle_spec"},
		{"throttle rate out of range", `{"figures":["shootout"],"throttle_spec":"min=2000"}`, "throttle_spec"},
		{"arn inverted hysteresis", `{"figures":["shootout"],"arn_spec":"on=1024,off=4096"}`, "arn_spec"},
		{"malformed fault spec", `{"figures":["2a"],"fault_spec":"drop=nonsense"}`, "fault_spec"},
	} {
		code, body := submit(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d %v, want 400", tc.name, code, body)
			continue
		}
		if got := errorCode(t, body); got != "bad_request" {
			t.Errorf("%s: error code %q, want bad_request", tc.name, got)
		}
		if msg := body["error"].(map[string]any)["message"].(string); !strings.Contains(msg, tc.names) {
			t.Errorf("%s: message %q does not name %q", tc.name, msg, tc.names)
		}
	}
	if len(stub.ran()) != 0 {
		t.Error("a rejected job executed")
	}
	// A well-formed fault spec with a derived seed is still admitted, and
	// so are the latency figures on the windowed runtime.
	for _, body := range []string{
		`{"figures":["2a"],"fault_spec":"seed=auto,droprate=credit:0.01"}`,
		`{"figures":["lat1"],"shards":2}`,
	} {
		if code, resp := submit(t, ts, body); code != http.StatusAccepted {
			t.Errorf("%s: got %d %v, want 202", body, code, resp)
		}
	}
}

// The request body's field names are the wire contract (clients, the
// spec echo in job status and the persisted queue file all carry them):
// a fully populated request marshals to exactly these 13 names in this
// order, and round-trips.
func TestSweepRequestWireFormat(t *testing.T) {
	const golden = `{"figures":["2a","lat1"],"scale":0.5,"packet_size":512,"max_rows":7,"policies":["RECN","1Q"],` +
		`"fault_spec":"seed=auto,droprate=credit:0.01","throttle_spec":"mark=8192","arn_spec":"on=8192,off=2048",` +
		`"topo":"fattree","shards":2,"check":true,"no_cache":true,"trace":true}`
	req := SweepRequest{
		Figures: []string{"2a", "lat1"},
		Options: experiments.Options{
			Scale: 0.5, PacketSize: 512, MaxRows: 7,
			Policies:  []fabric.Policy{fabric.PolicyRECN, fabric.Policy1Q},
			FaultSpec: "seed=auto,droprate=credit:0.01", ThrottleSpec: "mark=8192", ARNSpec: "on=8192,off=2048",
			Topo: "fattree", Shards: 2, Check: true, NoCache: true,
			// What the daemon owns never reaches the wire.
			Parallelism: 8, CacheDir: "/x", Context: context.Background(),
			OnRunDone: func(int, experiments.Run, *experiments.Result, bool) {},
		},
		Trace: true,
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != golden {
		t.Errorf("marshaled request:\n%s\nwant:\n%s", raw, golden)
	}
	var back SweepRequest
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != golden {
		t.Errorf("round trip:\n%s\nwant:\n%s", again, golden)
	}
	if raw, _ := json.Marshal(SweepRequest{Figures: []string{"2b"}, Options: experiments.Options{Scale: 0.05}}); string(raw) != `{"figures":["2b"],"scale":0.05}` {
		t.Errorf("sparse request marshals to %s", raw)
	}
}

// Finished jobs are bounded: past maxFinishedJobs the job that finished
// longest ago is forgotten (404), while the newest finished job and any
// job still queued or running stay, in submission order.
func TestFinishedJobsAreBounded(t *testing.T) {
	stub := newStubRunner()
	stub.gate("2b")
	s, ts := newTestServer(t, Config{QueueCap: 8, reproduce: stub.run})
	const extra = 5
	var ids []string
	for i := 0; i < maxFinishedJobs+extra; i++ {
		code, body := submit(t, ts, `{"figures":["table1"]}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %v", i, code, body)
		}
		ids = append(ids, body["id"].(string))
		waitState(t, ts, ids[i], "done")
	}
	// One running and one queued job behind the finished ones.
	_, body := submit(t, ts, `{"figures":["2b"]}`)
	running := body["id"].(string)
	waitState(t, ts, running, "running")
	_, body = submit(t, ts, `{"figures":["2a"]}`)
	queued := body["id"].(string)

	s.mu.Lock()
	jobs, order := len(s.jobs), append([]string(nil), s.order...)
	s.mu.Unlock()
	want := append(append([]string(nil), ids[extra:]...), running, queued)
	if jobs != len(want) || !equalStrings(order, want) {
		t.Errorf("%d jobs retained, order %v...; want the %d newest in submission order", jobs, order[:3], len(want))
	}
	for _, id := range ids[:extra] {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	if st := getStatus(t, ts, ids[len(ids)-1]); st["state"] != "done" {
		t.Errorf("newest finished job: %v", st)
	}
	stub.release("2b")
	waitState(t, ts, queued, "done")
}

// Queued jobs must start in submission (FIFO) order.
func TestQueueFIFODrainOrder(t *testing.T) {
	stub := newStubRunner()
	stub.gate("table1")
	_, ts := newTestServer(t, Config{Workers: 1, reproduce: stub.run})

	code, body := submit(t, ts, `{"figures":["table1"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("gate job: %d %v", code, body)
	}
	gateID := body["id"].(string)
	waitState(t, ts, gateID, "running")
	var ids []string
	for _, fig := range []string{"2a", "2b", "2c"} {
		code, body := submit(t, ts, fmt.Sprintf(`{"figures":[%q]}`, fig))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %v", fig, code, body)
		}
		ids = append(ids, body["id"].(string))
	}
	// Queue positions are 1-based FIFO while the gate job runs.
	for i, id := range ids {
		if pos := getStatus(t, ts, id)["queue_position"].(float64); int(pos) != i+1 {
			t.Errorf("job %s queue_position = %v, want %d", id, pos, i+1)
		}
	}
	stub.release("table1")
	for _, id := range ids {
		waitState(t, ts, id, "done")
	}
	want := []string{"table1", "2a", "2b", "2c"}
	if got := stub.ran(); !equalStrings(got, want) {
		t.Errorf("execution order %v, want %v", got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DELETE on a queued job removes it mid-queue: it never executes, and
// jobs behind it keep their order.
func TestCancelMidQueue(t *testing.T) {
	stub := newStubRunner()
	stub.gate("table1")
	_, ts := newTestServer(t, Config{Workers: 1, reproduce: stub.run})

	_, body := submit(t, ts, `{"figures":["table1"]}`)
	gateID := body["id"].(string)
	waitState(t, ts, gateID, "running")
	_, b1 := submit(t, ts, `{"figures":["2a"]}`)
	_, b2 := submit(t, ts, `{"figures":["2b"]}`)
	victim, survivor := b1["id"].(string), b2["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	if st := getStatus(t, ts, victim); st["state"] != "canceled" {
		t.Fatalf("victim state %v, want canceled", st["state"])
	}
	stub.release("table1")
	waitState(t, ts, survivor, "done")
	for _, ran := range stub.ran() {
		if ran == "2a" {
			t.Error("canceled job still executed")
		}
	}
}

// DELETE on a running job cancels its sweep context.
func TestCancelRunningJob(t *testing.T) {
	stub := newStubRunner()
	stub.gate("2a")
	_, ts := newTestServer(t, Config{reproduce: stub.run})
	defer stub.release("2a")

	_, body := submit(t, ts, `{"figures":["2a"]}`)
	id := body["id"].(string)
	waitState(t, ts, id, "running")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts, id, "canceled")
}

// The SSE stream replays the full lifecycle and terminates at the
// job's terminal event.
func TestEventStream(t *testing.T) {
	stub := newStubRunner()
	_, ts := newTestServer(t, Config{reproduce: stub.run})
	_, body := submit(t, ts, `{"figures":["2a","2b"]}`)
	id := body["id"].(string)
	waitState(t, ts, id, "done")

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body) // stream closes at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	for _, want := range []string{"event: queued", "event: started", "event: figure_done", "event: done"} {
		if !strings.Contains(stream, want) {
			t.Errorf("stream missing %q:\n%s", want, stream)
		}
	}
	// Replaying from an offset skips the earlier events.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(raw2), "event: queued") {
		t.Error("Last-Event-ID replayed from the start")
	}
	if !strings.Contains(string(raw2), "event: done") {
		t.Error("resumed stream missing the terminal event")
	}
}

func TestResultsNotReadyAndMetrics(t *testing.T) {
	stub := newStubRunner()
	stub.gate("2a")
	_, ts := newTestServer(t, Config{reproduce: stub.run})
	_, body := submit(t, ts, `{"figures":["2a"]}`)
	id := body["id"].(string)
	waitState(t, ts, id, "running")

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]any
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || errorCode(t, e) != "not_ready" {
		t.Errorf("results while running: %d %v, want 409 not_ready", resp.StatusCode, e)
	}

	stub.release("2a")
	waitState(t, ts, id, "done")
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"recnserved_queue_depth 0",
		"recnserved_jobs_admitted_total 1",
		"recnserved_jobs_done_total 1",
		"recnserved_rejected_queue_full_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// The results endpoint's default text format is the exact byte stream
// experiments.FprintTables renders for the same tables.
func TestResultsTextMatchesCLIFormat(t *testing.T) {
	stub := newStubRunner()
	_, ts := newTestServer(t, Config{reproduce: stub.run})
	_, body := submit(t, ts, `{"figures":["2a","2b"]}`)
	id := body["id"].(string)
	waitState(t, ts, id, "done")

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	tables, _ := stub.run("2a", experiments.Options{})
	t2, _ := stub.run("2b", experiments.Options{})
	tables = append(tables, t2...)
	var want bytes.Buffer
	experiments.FprintTables(&want, tables)
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("results bytes:\n%q\nwant FprintTables' stream:\n%q", got, want.Bytes())
	}
}

// Graceful shutdown persists still-queued jobs; a restart re-enqueues
// and runs them.
func TestShutdownPersistsQueueAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, "queue.json")
	stub := newStubRunner()
	stub.gate("table1")
	s, err := New(Config{Workers: 1, StateFile: state, DrainTimeout: 200 * time.Millisecond, reproduce: stub.run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	_, body := submit(t, ts, `{"figures":["table1"]}`)
	waitState(t, ts, body["id"].(string), "running")
	var queued []string
	for _, fig := range []string{"2a", "2b"} {
		_, b := submit(t, ts, fmt.Sprintf(`{"figures":[%q]}`, fig))
		queued = append(queued, b["id"].(string))
	}
	ts.Close()
	// The gate job never finishes: the drain times out, cancels it, and
	// the queued jobs are persisted.
	ctx, cancel := testContext(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("no queue state persisted: %v", err)
	}

	stub2 := newStubRunner()
	s2, ts2 := newTestServer(t, Config{Workers: 1, StateFile: state, reproduce: stub2.run})
	_ = s2
	for _, id := range queued {
		waitState(t, ts2, id, "done") // same IDs survive the restart
	}
	if want := []string{"2a", "2b"}; !equalStrings(stub2.ran(), want) {
		t.Errorf("restart ran %v, want %v", stub2.ran(), want)
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Errorf("state file not consumed after restore: %v", err)
	}
	// New submissions after restore must not collide with restored IDs.
	_, b := submit(t, ts2, `{"figures":["table1"]}`)
	for _, id := range queued {
		if b["id"].(string) == id {
			t.Errorf("new job reused restored ID %s", id)
		}
	}
}

// Submissions during a drain are rejected with the typed error.
func TestSubmitDuringShutdownRejected(t *testing.T) {
	stub := newStubRunner()
	s, err := New(Config{reproduce: stub.run})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := testContext(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := submit(t, ts, `{"figures":["2a"]}`)
	if code != http.StatusServiceUnavailable || errorCode(t, body) != "shutting_down" {
		t.Errorf("got %d %v, want 503 shutting_down", code, body)
	}
}

func TestRunLookupErrors(t *testing.T) {
	stub := newStubRunner()
	cacheDir := t.TempDir()
	_, ts := newTestServer(t, Config{CacheDir: cacheDir, reproduce: stub.run})
	resp, _ := http.Get(ts.URL + "/v1/runs/not-hex")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad key: %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/v1/runs/00000000deadbeef")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing key: %d, want 404", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, Config{reproduce: stub.run}) // no cache
	resp, _ = http.Get(ts2.URL + "/v1/runs/00000000deadbeef")
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no cache: %d, want 503", resp.StatusCode)
	}
}

func TestFiguresEndpoint(t *testing.T) {
	stub := newStubRunner()
	_, ts := newTestServer(t, Config{reproduce: stub.run})
	resp, err := http.Get(ts.URL + "/v1/figures")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Figures []struct {
			ID            string `json:"id"`
			EstimatedRuns int    `json:"estimated_runs"`
		} `json:"figures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Figures) != len(experiments.FigureIDs()) {
		t.Errorf("listed %d figures, want %d", len(out.Figures), len(experiments.FigureIDs()))
	}
}
