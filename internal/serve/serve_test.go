package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccredf/scenario"
)

// testScenario renders a small, valid scenario whose results depend on seed,
// so distinct seeds produce distinct result bytes.
func testScenario(seed uint64, horizonSlots int64) string {
	return fmt.Sprintf(`{
		"nodes": 8,
		"seed": %d,
		"horizon_slots": %d,
		"connections": [
			{"src": 0, "dests": [4], "period_slots": 10, "slots": 1},
			{"src": 2, "dests": [5, 6], "period_slots": 16, "slots": 2}
		],
		"poisson": [
			{"node": 1, "mean_interarrival_slots": 12, "slots": 1, "rel_deadline_slots": 200},
			{"node": 3, "mean_interarrival_slots": 20, "slots": 1, "rel_deadline_slots": 200, "dest": "opposite"}
		]
	}`, seed, horizonSlots)
}

// newTestService starts a Server behind an httptest listener. Cleanup closes
// the HTTP side first, then hard-stops the workers.
func newTestService(t *testing.T, opts Options) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	t.Cleanup(func() {
		ts.Close()
		client.CloseIdleConnections()
		srv.Close()
	})
	return srv, ts, client
}

func postJSON(t *testing.T, client *http.Client, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, b
}

func getBody(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, b
}

// submitScenario posts a scenario and returns the decoded status.
func submitScenario(t *testing.T, client *http.Client, base, body string) JobStatus {
	t.Helper()
	resp, b := postJSON(t, client, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("decode submit response %q: %v", b, err)
	}
	return st
}

// awaitState polls a job until its state is terminal (or matches want) and
// returns the final status.
func awaitState(t *testing.T, client *http.Client, base, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, b := getBody(t, client, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %s: %d: %s", id, resp.StatusCode, b)
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decode status %q: %v", b, err)
		}
		if st.State == want || st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkNoGoroutineLeaks waits for the goroutine count to return to the
// baseline captured before the server existed.
func checkNoGoroutineLeaks(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d before shutdown\n%s",
				runtime.NumGoroutine(), before, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestConcurrentSubmissions is the headline acceptance test: 64 simultaneous
// submissions of 8 distinct scenarios must all complete with correct
// per-scenario results, byte-identical bytes for identical (scenario, seed)
// pairs, a measured cache hit ratio > 0, and no goroutine leaks after
// shutdown.
func TestConcurrentSubmissions(t *testing.T) {
	const (
		distinct    = 8
		submissions = 64
	)
	before := runtime.NumGoroutine()
	srv := New(Options{Workers: 4, QueueDepth: submissions * 2})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	scenarios := make([]string, distinct)
	for i := range scenarios {
		scenarios[i] = testScenario(uint64(i+1), 2000)
	}

	type outcome struct {
		group  int
		status JobStatus
		result []byte
	}
	results := make([]outcome, submissions)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, submissions)
	for i := 0; i < submissions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			group := i % distinct
			resp, b := postJSON(t, client, ts.URL+"/v1/jobs", scenarios[group])
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("submission %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			var st JobStatus
			if err := json.Unmarshal(b, &st); err != nil {
				errs <- fmt.Errorf("submission %d: decode: %v", i, err)
				return
			}
			final := awaitState(t, client, ts.URL, st.ID, StateDone)
			if final.State != StateDone {
				errs <- fmt.Errorf("job %s ended %s (%s)", st.ID, final.State, final.Error)
				return
			}
			rr, rb := getBody(t, client, ts.URL+"/v1/jobs/"+st.ID+"/result")
			if rr.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("result %s: status %d: %s", st.ID, rr.StatusCode, rb)
				return
			}
			results[i] = outcome{group: group, status: final, result: rb}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Identical (scenario, seed) pairs must return byte-identical results;
	// distinct seeds must not collide.
	byGroup := make(map[int][]byte)
	keyByGroup := make(map[int]string)
	for i, r := range results {
		if want, ok := byGroup[r.group]; ok {
			if !bytes.Equal(r.result, want) {
				t.Fatalf("submission %d (group %d): result bytes differ from first copy", i, r.group)
			}
			if r.status.Key != keyByGroup[r.group] {
				t.Fatalf("submission %d: cache key %s != group key %s", i, r.status.Key, keyByGroup[r.group])
			}
		} else {
			byGroup[r.group] = r.result
			keyByGroup[r.group] = r.status.Key
		}
	}
	if len(byGroup) != distinct {
		t.Fatalf("got %d result groups, want %d", len(byGroup), distinct)
	}
	seen := make(map[string]int)
	for g, b := range byGroup {
		var sum Summary
		if err := json.Unmarshal(b, &sum); err != nil {
			t.Fatalf("group %d result does not decode as Summary: %v", g, err)
		}
		if sum.Schema != SummarySchema || sum.Engine != EngineVersion {
			t.Fatalf("group %d: schema/engine = %d/%s", g, sum.Schema, sum.Engine)
		}
		if sum.Key != keyByGroup[g] {
			t.Fatalf("group %d: summary key %s != job key %s", g, sum.Key, keyByGroup[g])
		}
		if sum.Snapshot.MessagesDelivered == 0 {
			t.Fatalf("group %d delivered nothing; scenario not actually simulated?", g)
		}
		if len(sum.Connections) != 2 {
			t.Fatalf("group %d: %d connection summaries, want 2", g, len(sum.Connections))
		}
		if prev, dup := seen[string(b)]; dup {
			t.Fatalf("groups %d and %d (different seeds) returned identical bytes", prev, g)
		}
		seen[string(b)] = g
	}

	// 64 submissions of 8 scenarios: at least 56 must have been cache hits
	// (at submit time or at run time), so the measured ratio is positive.
	cs := srv.CacheStats()
	if cs.Hits == 0 || cs.HitRatio() <= 0 {
		t.Fatalf("cache saw no hits: %+v", cs)
	}
	cachedCount := 0
	for _, r := range results {
		if r.status.Cached {
			cachedCount++
		}
	}
	if cachedCount == 0 {
		t.Fatal("no submission was marked cached")
	}
	t.Logf("cache: %d/%d submissions served from cache, hit ratio %.2f",
		cachedCount, submissions, cs.HitRatio())

	// Shutdown: drain, close the HTTP side, and verify every goroutine the
	// service started has exited.
	ts.Close()
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	srv.Close()
	checkNoGoroutineLeaks(t, before)
}

// TestCancelRunningJobFreesWorker pins the DELETE semantics: cancelling a
// running job returns promptly, the job reads cancelled, and the single
// worker slot is free to run the next job.
func TestCancelRunningJobFreesWorker(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, QueueDepth: 8, ChunkSlots: 64})

	long := submitScenario(t, client, ts.URL, testScenario(99, 500_000_000))
	if st := awaitState(t, client, ts.URL, long.ID, StateRunning); st.State != StateRunning {
		t.Fatalf("long job reached %s before running (%s)", st.State, st.Error)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+long.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled struct {
		ID    string `json:"id"`
		State State  `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("DELETE took %v, want prompt return", took)
	}
	if resp.StatusCode != http.StatusOK || cancelled.State != StateCancelled {
		t.Fatalf("DELETE: status %d state %s", resp.StatusCode, cancelled.State)
	}

	// The freed worker must pick up and finish a small job.
	small := submitScenario(t, client, ts.URL, testScenario(7, 500))
	if st := awaitState(t, client, ts.URL, small.ID, StateDone); st.State != StateDone {
		t.Fatalf("small job after cancel ended %s (%s): worker slot not freed?", st.State, st.Error)
	}
}

// TestQueueFullReturns429 fills the single-slot queue behind a busy worker
// and checks the over-admission response.
func TestQueueFullReturns429(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, QueueDepth: 1, ChunkSlots: 64})

	running := submitScenario(t, client, ts.URL, testScenario(101, 500_000_000))
	awaitState(t, client, ts.URL, running.ID, StateRunning)
	submitScenario(t, client, ts.URL, testScenario(102, 500_000_000)) // fills the queue

	resp, b := postJSON(t, client, ts.URL+"/v1/jobs", testScenario(103, 500_000_000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission: status %d: %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(b), "queue full") {
		t.Fatalf("429 body %q does not name the queue", b)
	}
}

// TestJobTimeout submits an effectively unbounded job with a tiny ?timeout=
// and expects a failed state naming the timeout.
func TestJobTimeout(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, ChunkSlots: 64})
	st := submitScenario(t, client, ts.URL+"", testScenario(55, 500_000_000))
	_ = st
	// Resubmit with an explicit timeout; the first submission occupies the
	// worker briefly, which is fine — the queue holds the second.
	resp, b := postJSON(t, client, ts.URL+"/v1/jobs?timeout=50ms", testScenario(56, 500_000_000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with timeout: status %d: %s", resp.StatusCode, b)
	}
	var timed JobStatus
	if err := json.Unmarshal(b, &timed); err != nil {
		t.Fatal(err)
	}
	// Cancel the first job so the timed one gets the worker.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
	}
	final := awaitState(t, client, ts.URL, timed.ID, StateFailed)
	if final.State != StateFailed || !strings.Contains(final.Error, "timed out") {
		t.Fatalf("timed job: state %s error %q", final.State, final.Error)
	}
}

// TestEventStreaming subscribes to a running job's event stream, checks the
// lines are well-formed JSONL protocol events, and that cancelling the job
// ends the stream.
func TestEventStreaming(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, ChunkSlots: 64})
	st := submitScenario(t, client, ts.URL, testScenario(77, 500_000_000))
	awaitState(t, client, ts.URL, st.ID, StateRunning)

	resp, err := client.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	lines := 0
	kinds := make(map[string]bool)
	for lines < 50 && sc.Scan() {
		var ev struct {
			Kind string          `json:"kind"`
			T    json.RawMessage `json:"t"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %d %q: %v", lines, sc.Text(), err)
		}
		if ev.Kind == "" || ev.T == nil {
			t.Fatalf("stream line %d missing kind/t: %q", lines, sc.Text())
		}
		kinds[ev.Kind] = true
		lines++
	}
	if lines == 0 {
		t.Fatal("no events received from a running job")
	}
	if !kinds["slot-start"] {
		t.Fatalf("expected slot-start events in %v", kinds)
	}

	// Cancelling the job closes the hub, which must end the stream.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for sc.Scan() {
		}
	}()
	select {
	case <-drainDone:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not end after job cancellation")
	}
}

// TestEventStreamSSE checks content negotiation: Accept: text/event-stream
// wraps each line in an SSE data frame.
func TestEventStreamSSE(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, ChunkSlots: 64})
	st := submitScenario(t, client, ts.URL, testScenario(78, 500_000_000))
	awaitState(t, client, ts.URL, st.ID, StateRunning)
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 5 && sc.Scan(); i++ {
		line := sc.Text()
		if line == "" {
			continue // frame separator
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("SSE line %q lacks data: prefix", line)
		}
	}
}

// TestEventStreamOfFinishedJobEndsImmediately: subscribing to a terminal job
// yields an empty, already-closed stream rather than a hang.
func TestEventStreamOfFinishedJobEndsImmediately(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 2})
	st := submitScenario(t, client, ts.URL, testScenario(5, 200))
	awaitState(t, client, ts.URL, st.ID, StateDone)
	resp, b := getBody(t, client, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if resp.StatusCode != http.StatusOK || len(b) != 0 {
		t.Fatalf("finished-job stream: status %d body %q", resp.StatusCode, b)
	}
}

// TestSubmitValidation covers the 4xx surface of the submit endpoint.
func TestSubmitValidation(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, MaxBodyBytes: 512})
	cases := []struct {
		name string
		url  string
		body string
		code int
		want string
	}{
		{"syntax error", "/v1/jobs", `{"nodes": `, http.StatusBadRequest, ""},
		{"unknown field", "/v1/jobs", `{"nodes": 8, "horizon_slots": 100, "bogus": 1}`, http.StatusBadRequest, "bogus"},
		{"nodes out of range", "/v1/jobs", `{"nodes": 1, "horizon_slots": 100}`, http.StatusBadRequest, "nodes"},
		{"bad connection src", "/v1/jobs",
			`{"nodes": 4, "horizon_slots": 100, "connections": [{"src": 9, "dests": [1], "period_slots": 10, "slots": 1}]}`,
			http.StatusBadRequest, "connections[0].src"},
		{"bad timeout", "/v1/jobs?timeout=banana", `{"nodes": 8, "horizon_slots": 100}`, http.StatusBadRequest, "timeout"},
		{"negative timeout", "/v1/jobs?timeout=-3s", `{"nodes": 8, "horizon_slots": 100}`, http.StatusBadRequest, "positive"},
		{"oversized body", "/v1/jobs",
			`{"nodes": 8, "horizon_slots": 100, "connections": [` +
				strings.Repeat(`{"src": 0, "dests": [1], "period_slots": 10, "slots": 1},`, 40) +
				`{"src": 0, "dests": [1], "period_slots": 10, "slots": 1}]}`,
			http.StatusRequestEntityTooLarge, ""},
		{"bad sweep protocol", "/v1/sweeps", `{"protocols": ["token-ring"], "horizon_slots": 100}`,
			http.StatusBadRequest, "protocols[0]"},
		{"sweep unknown field", "/v1/sweeps", `{"horizon_slots": 100, "frobs": 2}`, http.StatusBadRequest, "frobs"},
		{"sweep missing horizon", "/v1/sweeps", `{"nodes": [4]}`, http.StatusBadRequest, "horizon_slots"},
		{"sweep churn rate unrepresentable", "/v1/sweeps", `{"horizon_slots": 100, "churn": "rate=1e12,hold=2000"}`,
			http.StatusBadRequest, "churn: churn: rate_per_sec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, client, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.code, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not {\"error\": ...}", b)
			}
			if tc.want != "" && !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

// TestUnknownJobRoutes covers the 404/409 surface of the job routes.
func TestUnknownJobRoutes(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1, ChunkSlots: 64})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, _ := getBody(t, client, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}

	// Result of a job that is not done → 409 conflict.
	st := submitScenario(t, client, ts.URL, testScenario(88, 500_000_000))
	awaitState(t, client, ts.URL, st.ID, StateRunning)
	rr, rb := getBody(t, client, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: status %d: %s", rr.StatusCode, rb)
	}
}

// TestSweepEndpoint runs a small grid end-to-end and checks the cache serves
// the identical bytes on resubmission.
func TestSweepEndpoint(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 2})
	spec := `{"nodes": [4], "loads": [0.4], "seeds": [1, 2], "horizon_slots": 400, "workers": 2}`
	resp, b := postJSON(t, client, ts.URL+"/v1/sweeps", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "sweep" {
		t.Fatalf("kind = %q", st.Kind)
	}
	final := awaitState(t, client, ts.URL, st.ID, StateDone)
	if final.State != StateDone {
		t.Fatalf("sweep ended %s (%s)", final.State, final.Error)
	}
	_, rb := getBody(t, client, ts.URL+"/v1/jobs/"+st.ID+"/result")
	var res SweepResult
	if err := json.Unmarshal(rb, &res); err != nil {
		t.Fatalf("sweep result %q: %v", rb, err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("sweep returned %d points, want 2", len(res.Points))
	}
	for i, p := range res.Points {
		if p.Error != "" {
			t.Fatalf("point %d failed: %s", i, p.Error)
		}
		if p.Delivered == 0 {
			t.Fatalf("point %d delivered nothing", i)
		}
	}

	// Resubmission: cache hit, done immediately, byte-identical.
	resp2, b2 := postJSON(t, client, ts.URL+"/v1/sweeps", spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sweep resubmit: status %d: %s", resp2.StatusCode, b2)
	}
	var st2 JobStatus
	if err := json.Unmarshal(b2, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != StateDone {
		t.Fatalf("resubmit: cached=%v state=%s", st2.Cached, st2.State)
	}
	_, rb2 := getBody(t, client, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if !bytes.Equal(rb, rb2) {
		t.Fatal("cached sweep result differs from computed one")
	}
}

// TestScenarioKeyNormalisation: equivalent spellings (implicit vs explicit
// defaults) share one cache key; different seeds do not.
func TestScenarioKeyNormalisation(t *testing.T) {
	k1 := mustScenarioKey(t, `{"nodes": 8, "horizon_slots": 100}`)
	k2 := mustScenarioKey(t, `{"nodes": 8, "horizon_slots": 100, "seed": 1, "protocol": "ccr-edf"}`)
	k3 := mustScenarioKey(t, `{"nodes": 8, "horizon_slots": 100, "seed": 2}`)
	if k1 != k2 {
		t.Fatalf("equivalent scenarios hash differently: %s vs %s", k1, k2)
	}
	if k1 == k3 {
		t.Fatal("different seeds share a cache key")
	}
}

func mustScenarioKey(t *testing.T, body string) string {
	t.Helper()
	s, err := scenario.Load(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	key, err := ScenarioKey(s)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMetricsEndpoint sanity-checks the Prometheus text surface after a bit
// of traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 2})
	st := submitScenario(t, client, ts.URL, testScenario(3, 300))
	awaitState(t, client, ts.URL, st.ID, StateDone)
	submitScenario(t, client, ts.URL, testScenario(3, 300)) // cache hit

	resp, b := getBody(t, client, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	text := string(b)
	for _, want := range []string{
		"ccr_served_up 1",
		`ccr_served_jobs_total{state="done"} 2`,
		"ccr_served_cache_hits_total 1",
		"ccr_served_workers 2",
		"ccr_served_queue_capacity 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed metrics line %q", line)
		}
	}
}

// TestShutdownDrainsQueuedJobs: Shutdown lets queued work finish, then
// further submissions fail with 503.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	defer func() {
		ts.Close()
		client.CloseIdleConnections()
		srv.Close()
	}()

	var ids []string
	for i := 0; i < 6; i++ {
		st := submitScenario(t, client, ts.URL, testScenario(uint64(200+i), 1500))
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		st := awaitState(t, client, ts.URL, id, StateDone)
		if st.State != StateDone {
			t.Fatalf("job %s not drained: %s (%s)", id, st.State, st.Error)
		}
	}
	resp, b := postJSON(t, client, ts.URL+"/v1/jobs", testScenario(1, 100))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d: %s", resp.StatusCode, b)
	}
}

// TestHealthz is the trivial liveness check.
func TestHealthz(t *testing.T) {
	_, ts, client := newTestService(t, Options{Workers: 1})
	resp, b := getBody(t, client, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}
}
