package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccredf/internal/rng"
	"ccredf/internal/runner"
	"ccredf/internal/sched"
	"ccredf/internal/serve"
	"ccredf/internal/serve/client"
	"ccredf/internal/serve/journal"
	"ccredf/scenario"
)

// The served-mix workload: a journalled in-process ccr-served behind its
// HTTP handler on loopback, driven by a closed loop of 2 clients.
const (
	servedClients = 2
	servedWorkers = 2
	servedNodes   = 8
	servedSlots   = 1000
	servedHitProb = 0.5
	// servedPoll is the clients' status poll interval: short, so the
	// default 200ms poll does not set the latency floor by itself.
	servedPoll     = time.Millisecond
	servedWarmJobs = 40
	// servedCapture is how many verified scenarios are captured for the
	// engine replays.
	servedCapture = 8
)

// tmpRoot holds the benchmark's scratch files inside the checkout.
const tmpRoot = ".bench_build/tmp"

// servedScenario is job scenario i of a seed space: a small 8-node ring with
// three admitted connections and one best-effort source, all drawn from
// (space, i).
func servedScenario(space uint64, i int) *scenario.Scenario {
	s := space*1_000_003 + uint64(i) + 1
	r := rng.New(s)
	sc := &scenario.Scenario{Nodes: servedNodes, Seed: s, HorizonSlots: servedSlots}
	for c := 0; c < 3; c++ {
		src := r.Intn(servedNodes)
		dst := (src + 1 + r.Intn(servedNodes-1)) % servedNodes
		sc.Connections = append(sc.Connections, scenario.Connection{Src: src, Dests: []int{dst}, PeriodSlots: int64(20 + r.Intn(40)), Slots: 1})
	}
	sc.Poisson = []scenario.Poisson{{Node: r.Intn(servedNodes), Class: "be", MeanInterarrivalSlots: 40, Slots: 1, RelDeadlineSlots: 500}}
	return sc
}

// servedRig is one running daemon: journal, server, HTTP listener.
type servedRig struct {
	dir    string
	jnl    *journal.Journal
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

// startServed opens a journal in dir and serves a 2-worker server on a
// loopback port, the way ccr-served -journal does.
func startServed(dir string) (*servedRig, error) {
	jnl, err := journal.Open(filepath.Join(dir, "journal.jsonl"), journal.Options{})
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Workers: servedWorkers, Journal: jnl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		jnl.Close()
		return nil, err
	}
	rig := &servedRig{dir: dir, jnl: jnl, srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	ctx, cancel := waitCtx()
	defer cancel()
	c := client.New(rig.base, client.Options{})
	for {
		err := c.Ready(ctx)
		if err == nil {
			return rig, nil
		}
		if ctx.Err() != nil {
			return nil, checkWait(ctx, "server readiness", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes everything startServed opened, waiting for the listener
// goroutine to return. The load has ended by then, so Close rather than
// Shutdown, which would wait 5 s for any dialled-but-unused connection.
func (r *servedRig) stop() error {
	ctx, cancel := waitCtx()
	defer cancel()
	err := errors.Join(r.hs.Close(), r.srv.Shutdown(ctx))
	r.srv.Close()
	err = errors.Join(err, r.jnl.Close())
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return checkWait(ctx, "server shutdown", err)
}

// pollCounter counts job-status GETs, the client's polls.
type pollCounter struct {
	base  http.RoundTripper
	polls *atomic.Int64
}

func (p pollCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") && !strings.HasSuffix(r.URL.Path, "/result") {
		p.polls.Add(1)
	}
	return p.base.RoundTrip(r)
}

// newBenchClient builds a serve/client with its own connection pool, the
// short poll interval and a poll counter.
func newBenchClient(base string, polls *atomic.Int64) *client.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	return client.New(base, client.Options{
		HTTPClient:   &http.Client{Timeout: waitLimit, Transport: pollCounter{base: tr, polls: polls}},
		PollInterval: servedPoll,
	})
}

// servedJob is one round trip's record.
type servedJob struct {
	idx             int
	cached          bool
	traced          bool
	rt, submit, get float64 // seconds
	engineMS        float64
	digest          [32]byte
}

// roundTrip drives one job to its result bytes: submit, poll until
// terminal, fetch.
func roundTrip(c *client.Client, tr *tracer, submit func(ctx context.Context) (serve.JobStatus, error)) (servedJob, []byte, error) {
	ctx, cancel := waitCtx()
	defer cancel()
	var j servedJob
	root := tr.open("job", 0)
	defer tr.close(root)
	start := time.Now()
	id := tr.open("serve.submit", root)
	st, err := submit(ctx)
	tr.close(id)
	j.submit = time.Since(start).Seconds()
	if err != nil {
		return j, nil, checkWait(ctx, "submit", err)
	}
	if !st.State.Terminal() {
		id = tr.open("serve.await", root)
		st, err = c.Await(ctx, st.ID)
		tr.close(id)
		if err != nil {
			return j, nil, checkWait(ctx, "job "+st.ID, err)
		}
	}
	if st.State != serve.StateDone {
		return j, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	t := time.Now()
	id = tr.open("serve.result_fetch", root)
	b, err := c.Result(ctx, st.ID)
	tr.close(id)
	j.get = time.Since(t).Seconds()
	j.rt = time.Since(start).Seconds()
	j.cached = st.Cached
	j.engineMS = st.WallMS
	return j, b, checkWait(ctx, "result of "+st.ID, err)
}

// servedLoad is the closed loop's shared state: scenario bodies by index and
// the indices whose results have come back (candidates for a hit).
type servedLoad struct {
	space uint64
	next  atomic.Int64
	mu    sync.Mutex
	done  []int
	seen  map[int]bool
	jobs  []servedJob
}

func (l *servedLoad) body(idx int) ([]byte, error) {
	return json.Marshal(servedScenario(l.space, idx))
}

// client runs one closed-loop client until end: each job resubmits a
// finished scenario with probability servedHitProb, else a fresh one.
func (l *servedLoad) client(e *env, c *client.Client, tr *tracer, r *rng.Source, end time.Time) {
	for time.Now().Before(end) {
		idx := -1
		if r.Float64() < servedHitProb {
			l.mu.Lock()
			if len(l.done) > 0 {
				idx = l.done[r.Intn(len(l.done))]
			}
			l.mu.Unlock()
		}
		if idx < 0 {
			idx = int(l.next.Add(1) - 1)
		}
		body, err := l.body(idx)
		if err != nil {
			e.checks.verify(err)
			continue
		}
		j, b, err := roundTrip(c, tr, func(ctx context.Context) (serve.JobStatus, error) {
			return c.SubmitScenario(ctx, body, 0)
		})
		e.checks.attempt()
		if err != nil {
			e.checks.fail(err)
			continue
		}
		j.idx, j.traced, j.digest = idx, tr != nil, sha256.Sum256(b)
		l.mu.Lock()
		if !l.seen[idx] {
			l.seen[idx] = true
			l.done = append(l.done, idx)
		}
		l.jobs = append(l.jobs, j)
		l.mu.Unlock()
	}
}

// expectedSummary runs scenario sc in-process and encodes its summary under
// its content key, which is what the server must return for it. With tr set
// the build, chunks and summary are spans; capture records it into acc.
func expectedSummary(sc *scenario.Scenario, tr *tracer, acc *engineAcc, capture bool) ([]byte, error) {
	key, err := serve.ScenarioKey(sc)
	if err != nil {
		return nil, err
	}
	id := tr.open("scenario.build", 0)
	res, err := sc.Build()
	tr.close(id)
	if err != nil {
		return nil, err
	}
	net := res.Net.Network
	switch {
	case capture:
		c := acc.attach(net, maxRounds)
		res.Net.Run(res.Horizon)
		acc.collect(c, net.Slot())
	case tr != nil:
		acc.chunk(tr, 0, net, func() { res.Net.Run(res.Horizon) })
	default:
		res.Net.Run(res.Horizon)
	}
	id = tr.open("serve.summarize", 0)
	b, err := serve.Summarize(res.Net, key).Encode()
	tr.close(id)
	return b, err
}

// sameResult accepts a served result only when its digest is that of the
// in-process summary.
func sameResult(got [32]byte, want []byte) error {
	if got != sha256.Sum256(want) {
		return fmt.Errorf("served result differs from the in-process summary (%d bytes expected)", len(want))
	}
	return nil
}

// replayJournal appends every record of the run's journal to a fresh
// journal in dir, fsync included, and returns each append's seconds.
func replayJournal(src, dir string) ([]float64, error) {
	f, err := os.Open(src)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dst, err := journal.Open(filepath.Join(dir, "replay.jsonl"), journal.Options{CompactBytes: -1})
	if err != nil {
		return nil, err
	}
	var walls []float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var rec journal.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // a torn tail line: Replay skips it too
		}
		start := time.Now()
		if err := dst.Append(rec); err != nil {
			dst.Close()
			return nil, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return walls, errors.Join(sc.Err(), dst.Close())
}

func runServed(e *env) (*outcome, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var rig *servedRig
	var polls atomic.Int64
	warm := &servedLoad{space: e.seed ^ 0x5eed, seen: map[int]bool{}}
	setup, err := timeSetup(func(last bool) error {
		dir, err := os.MkdirTemp(tmp, "rig-")
		if err != nil {
			return err
		}
		r, err := startServed(dir)
		if err != nil {
			return err
		}
		c := newBenchClient(r.base, &polls)
		for i := 0; i < servedWarmJobs; i++ {
			body, err := warm.body(i)
			if err == nil {
				_, _, err = roundTrip(c, nil, func(ctx context.Context) (serve.JobStatus, error) {
					return c.SubmitScenario(ctx, body, 0)
				})
			}
			if err != nil {
				return errors.Join(err, r.stop())
			}
		}
		if last {
			rig = r
			return nil
		}
		return r.stop()
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			rig.stop()
		}
	}()
	want0, err := expectedSummary(servedScenario(e.seed, 0), nil, nil, false)
	if err != nil {
		return nil, err
	}
	if err := mustReject("served result", sameResult(sha256.Sum256(bytes.ToUpper(want0)), want0)); err != nil {
		return nil, err
	}

	load := &servedLoad{space: e.seed, seen: map[int]bool{}}
	polls.Store(0)
	out := &outcome{setup: setup, layers: map[string]float64{}}
	plain, traced := e.phases()
	heap := startHeap()
	start := time.Now()
	for i, phase := range []time.Duration{plain, traced} {
		if phase == 0 {
			continue
		}
		var tr *tracer
		if i == 1 {
			tr = e.tr
		}
		end := time.Now().Add(phase)
		var wg sync.WaitGroup
		for k := 0; k < servedClients; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				load.client(e, newBenchClient(rig.base, &polls), tr, rng.New(e.seed*16+uint64(k)+uint64(i)*4+1), end)
			}(k)
		}
		wg.Wait()
	}
	elapsed := time.Since(start).Seconds()
	out.heapPeak = heap.end()
	stopped = true
	if err := rig.stop(); err != nil {
		return nil, err
	}

	// Verify every result against an in-process run of its scenario: on 2
	// workers untraced; inline when traced, so the first few runs are
	// captured for the replays and the rest run under spans.
	type verified struct {
		b   []byte
		err error
	}
	acc := newEngineAcc(true, sched.Map5Bit)
	workers := servedWorkers
	if e.traced {
		workers = 1
	}
	runs := runner.Map(len(load.done), workers, func(n int) verified {
		sc := servedScenario(e.seed, load.done[n])
		if !e.traced {
			b, err := expectedSummary(sc, nil, nil, false)
			return verified{b, err}
		}
		var tr *tracer
		if n >= servedCapture {
			tr = e.tr
		}
		b, err := expectedSummary(sc, tr, acc, n < servedCapture)
		return verified{b, err}
	})
	want := map[int][]byte{}
	for n, v := range runs {
		if v.err != nil {
			return nil, v.err
		}
		want[load.done[n]] = v.b
	}
	var miss, hit, missUntraced []float64
	for _, j := range load.jobs {
		if err := sameResult(j.digest, want[j.idx]); err != nil {
			e.checks.fail(fmt.Errorf("scenario %d: %w", j.idx, err))
		}
		if j.cached {
			hit = append(hit, j.rt)
		} else {
			miss = append(miss, j.rt)
			if !j.traced {
				missUntraced = append(missUntraced, j.rt)
			}
		}
	}
	if len(miss) == 0 || len(hit) == 0 {
		return nil, fmt.Errorf("served-mix ran %d misses and %d hits; it needs both", len(miss), len(hit))
	}
	out.mainWall, out.refWall = miss, hit
	out.work = float64(len(load.jobs))
	out.throughput = out.work / elapsed
	out.detail = []named{
		{"served_jobs_per_s", out.throughput, "1/s"},
		{"served_miss_p50_ms", 1e3 * median(miss), "ms"},
		{"served_hit_p50_ms", 1e3 * median(hit), "ms"},
		{"served_misses", float64(len(miss)), "count"},
		{"served_hits", float64(len(hit)), "count"},
		{"served_poll_interval_ms", ms(servedPoll), "ms"},
	}
	for _, side := range []struct {
		name string
		xs   []float64
	}{{"served_miss", miss}, {"served_hit", hit}} {
		if p, v, ok := tail(side.xs); ok {
			out.detail = append(out.detail, named{side.name + "_" + p + "_ms", 1e3 * v, "ms"})
		}
	}
	if !e.traced {
		return out, nil
	}

	eng, err := acc.layers(e.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range eng {
		out.layers[k] = v
	}
	var submit, get, engine, wait []float64
	hits := 0
	for _, j := range load.jobs {
		if !j.traced {
			continue
		}
		submit = append(submit, j.submit)
		get = append(get, j.get)
		if j.cached {
			hits++
			continue
		}
		engine = append(engine, j.engineMS/1e3)
		wait = append(wait, max(0, j.rt-j.submit-j.get-j.engineMS/1e3))
	}
	appends, err := replayJournal(filepath.Join(rig.dir, "journal.jsonl"), tmp)
	if err != nil {
		return nil, fmt.Errorf("journal replay: %w", err)
	}
	tracedJobs := float64(len(submit))
	out.layers["scenario.build_ms"] = 1e3 * median(e.tr.durations("scenario.build"))
	out.layers["serve.summarize_ms"] = 1e3 * median(e.tr.durations("serve.summarize"))
	out.layers["serve.submit_ms"] = 1e3 * median(submit)
	out.layers["serve.result_fetch_ms"] = 1e3 * median(get)
	out.layers["serve.engine_ms"] = 1e3 * median(engine)
	out.layers["serve.queue_wait_ms"] = 1e3 * median(wait)
	out.layers["serve.cache_hit_ratio"] = float64(hits) / tracedJobs
	out.layers["serve.polls_per_job"] = float64(polls.Load()) / float64(len(load.jobs))
	out.layers["journal.append_ms"] = 1e3 * median(appends)
	var missTraced []float64
	for _, j := range load.jobs {
		if j.traced && !j.cached {
			missTraced = append(missTraced, j.rt)
		}
	}
	out.layers["trace_overhead_ratio"] = median(missTraced) / median(missUntraced)
	return out, nil
}
