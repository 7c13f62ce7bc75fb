package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ccredf/internal/cluster"
	"ccredf/internal/sched"
	"ccredf/internal/serve"
	"ccredf/internal/serve/client"
	"ccredf/internal/sweep"
)

// The cluster-scatter workload: three in-process ccr-served peers on
// loopback, one client scattering fresh sweep grids through one of them.
const (
	clusterPeers  = 3
	clusterSlots  = 2000
	clusterSeeds  = 4
	clusterGossip = 100 * time.Millisecond
	// clusterDeadAfter is generous so a busy 2-core host never writes a
	// live peer off mid-grid.
	clusterDeadAfter = 5 * time.Second
	// clusterProbePoints is how many fresh single points the traced run
	// times remotely and locally.
	clusterProbePoints = 6
)

// clusterSpec is round r's grid: {ccr-edf,cc-fpr,tdma} × 8 nodes ×
// {0.3,0.6,0.9} × 4 fresh seeds = 36 points, so no round hits a cache.
func clusterSpec(seed uint64, r int) *serve.SweepSpec {
	seeds := make([]uint64, clusterSeeds)
	for i := range seeds {
		seeds[i] = (seed<<20 | uint64(r)<<4) + uint64(i) + 1
	}
	return &serve.SweepSpec{
		Protocols: []string{"ccr-edf", "cc-fpr", "tdma"}, Nodes: []int{8}, Loads: []float64{0.3, 0.6, 0.9},
		Localities: []string{"uniform"}, Seeds: seeds, HorizonSlots: clusterSlots,
	}
}

// clusterWarmSpec is the set-up's warm-up sweep, from a seed range no
// measured round uses. Ring ownership follows the peers' random loopback
// ports, so it has six points: with fewer, whether any lands on a remote
// peer (and pays the remote-point poll) would vary from run to run.
func clusterWarmSpec(seed uint64) *serve.SweepSpec {
	base := seed<<20 | 1<<19
	return &serve.SweepSpec{Loads: []float64{0.3, 0.6, 0.9}, Seeds: []uint64{base, base + 1}, HorizonSlots: clusterSlots}
}

// peer is one cluster member.
type peer struct {
	adv    string
	srv    *serve.Server
	node   *cluster.Node
	hs     *http.Server
	served chan error
}

// startCluster brings up clusterPeers peers the way ccr-served -peers does —
// job IDs prefixed per peer with cluster.IDPrefix — and waits until every
// peer sees every other alive through gossip.
func startCluster() ([]*peer, error) {
	lns := make([]net.Listener, clusterPeers)
	advs := make([]string, clusterPeers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], advs[i] = ln, "http://"+ln.Addr().String()
	}
	peers := make([]*peer, 0, clusterPeers)
	for i, ln := range lns {
		srv := serve.New(serve.Options{Workers: 1, IDPrefix: cluster.IDPrefix(advs[i])})
		node, err := cluster.New(cluster.Options{
			Self: advs[i], Peers: advs, Server: srv,
			GossipInterval: clusterGossip, DeadAfter: clusterDeadAfter,
		})
		if err != nil {
			srv.Close()
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, errors.Join(err, stopCluster(peers))
		}
		p := &peer{adv: advs[i], srv: srv, node: node, hs: &http.Server{Handler: node.Handler()}, served: make(chan error, 1)}
		go func(ln net.Listener) { p.served <- p.hs.Serve(ln) }(ln)
		node.Start()
		peers = append(peers, p)
	}
	ctx, cancel := waitCtx()
	defer cancel()
	for _, p := range peers {
		if err := awaitAlive(ctx, p.adv); err != nil {
			return nil, errors.Join(checkWait(ctx, "cluster gossip", err), stopCluster(peers))
		}
	}
	return peers, nil
}

// awaitAlive polls a peer's /cluster view until it reports every peer
// alive.
func awaitAlive(ctx context.Context, adv string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, adv+"/cluster", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var topo cluster.Topology
			err = json.NewDecoder(resp.Body).Decode(&topo)
			resp.Body.Close()
			alive := 0
			for _, v := range topo.Peers {
				if v.State == cluster.StateAlive {
					alive++
				}
			}
			if err == nil && alive == clusterPeers {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stopCluster stops gossip first, then closes each peer's HTTP server and
// drains its serve.Server, waiting for every listener goroutine. Close, not
// Shutdown: the load has ended, and Shutdown would wait 5 s for any
// connection a transport dialled but never used.
func stopCluster(peers []*peer) error {
	ctx, cancel := waitCtx()
	defer cancel()
	var err error
	for _, p := range peers {
		p.node.Stop()
	}
	for _, p := range peers {
		err = errors.Join(err, p.hs.Close(), p.srv.Shutdown(ctx))
		p.srv.Close()
		if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	}
	return checkWait(ctx, "cluster shutdown", err)
}

// checkStitched accepts a scattered sweep result only when its points are,
// byte for byte on the wire, the local sweep.Run of the same grid.
func checkStitched(body []byte, local []sweep.Outcome) error {
	var res serve.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("sweep result: %w", err)
	}
	want := make([]serve.SweepOutcome, len(local))
	for i, o := range local {
		if o.Err != nil {
			return fmt.Errorf("local point %s: %w", o.Point, o.Err)
		}
		want[i] = serve.WireOutcome(o)
	}
	got, err := json.Marshal(res.Points)
	if err != nil {
		return err
	}
	exp, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(got) != string(exp) {
		return fmt.Errorf("stitched result (%d points) differs from the local grid (%d points)", len(res.Points), len(want))
	}
	return nil
}

// owner is the ring owner of a sub-sweep with every peer healthy.
func owner(p *peer, sub *serve.SweepSpec) (string, error) {
	key, err := serve.SweepKey(sub)
	if err != nil {
		return "", err
	}
	o, _ := p.node.Ring().Owner(key, func(string) bool { return true })
	return o, nil
}

// probePoint runs one single-point sub-sweep on its owner o and returns its
// wall ms: through client.RunSweep, with the settings the scatterer's
// remote-point client uses, when o is another peer; through RunSubSweep
// when o is the entry peer itself.
func probePoint(entry *peer, o string, sub *serve.SweepSpec) (float64, error) {
	ctx, cancel := waitCtx()
	defer cancel()
	start := time.Now()
	var err error
	if o != entry.adv {
		rc := client.New(o, client.Options{MaxAttempts: 2, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, PollInterval: 50 * time.Millisecond})
		_, _, err = rc.RunSweep(ctx, sub, 0)
	} else {
		var key string
		if key, err = serve.SweepKey(sub); err == nil {
			_, err = entry.srv.RunSubSweep(ctx, sub, key)
		}
	}
	return ms(time.Since(start)), checkWait(ctx, "probe point", err)
}

func runCluster(e *env) (*outcome, error) {
	seed := e.seed
	var peers []*peer
	setup, err := timeSetup(func(last bool) error {
		ps, err := startCluster()
		if err != nil {
			return err
		}
		wc := newBenchClient(ps[0].adv, new(atomic.Int64))
		if _, _, err := roundTrip(wc, nil, func(ctx context.Context) (serve.JobStatus, error) {
			return wc.SubmitSweep(ctx, clusterWarmSpec(seed), 0)
		}); err != nil {
			return errors.Join(err, stopCluster(ps))
		}
		if last {
			peers = ps
			return nil
		}
		return stopCluster(ps)
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stopCluster(peers)
		}
	}()
	if err := mustReject("stitched sweep", checkStitched([]byte(`{"points":[]}`), sweep.Run(clusterSpec(e.seed, 0).Grid()[:1], 1, clusterSlots))); err != nil {
		return nil, err
	}

	var polls atomic.Int64
	c := newBenchClient(peers[0].adv, &polls)
	out := &outcome{setup: setup, layers: map[string]float64{}}
	var untracedMain []float64
	var remote, points int
	var jobs []servedJob
	round := 0
	plain, traced := e.phases()
	heap := startHeap()
	for i, phase := range []time.Duration{plain, traced} {
		var tr *tracer
		if i == 1 {
			tr = e.tr
		}
		for end := time.Now().Add(phase); phase > 0 && time.Now().Before(end); round++ {
			spec := clusterSpec(e.seed, round)
			j, body, err := roundTrip(c, tr, func(ctx context.Context) (serve.JobStatus, error) {
				return c.SubmitSweep(ctx, spec, 0)
			})
			if err != nil {
				e.checks.verify(err)
				continue
			}
			out.mainWall = append(out.mainWall, j.rt)
			if i == 0 {
				untracedMain = append(untracedMain, j.rt)
			} else {
				jobs = append(jobs, j)
			}

			id := tr.open("sweep.local", 0)
			start := time.Now()
			local := sweep.Run(spec.Grid(), sweepWorkers, clusterSlots)
			out.refWall = append(out.refWall, time.Since(start).Seconds())
			tr.close(id)
			e.checks.verify(checkStitched(body, local))
			out.work += float64(len(local))

			// The sweep's own owner scatters; count the points it hands
			// to another peer.
			scatterer, err := owner(peers[0], spec)
			if err != nil {
				return nil, err
			}
			for _, pt := range spec.Grid() {
				o, err := owner(peers[0], spec.PointSpec(pt))
				if err != nil {
					return nil, err
				}
				points++
				if o != scatterer {
					remote++
				}
			}
		}
	}
	out.heapPeak = heap.end()
	out.throughput = out.work / sum(out.mainWall)
	out.detail = []named{
		{"scatter_makespan_s", median(out.mainWall), "s"},
		{"scatter_local_grid_s", median(out.refWall), "s"},
		{"scatter_points_per_s", out.throughput, "1/s"},
		{"scatter_grids", float64(len(out.mainWall)), "count"},
	}
	if !e.traced {
		stopped = true
		return out, stopCluster(peers)
	}

	// Fresh single points on their owners: remote ones over HTTP, the entry
	// peer's own through RunSubSweep.
	var remoteMS, localMS []float64
	probe := clusterSpec(e.seed, round+1)
	for _, pt := range probe.Grid() {
		sub := probe.PointSpec(pt)
		o, err := owner(peers[0], sub)
		if err != nil {
			return nil, err
		}
		walls := &localMS
		if o != peers[0].adv {
			walls = &remoteMS
		}
		if len(*walls) == clusterProbePoints {
			continue
		}
		d, err := probePoint(peers[0], o, sub)
		e.checks.verify(err)
		*walls = append(*walls, d)
	}
	stopped = true
	if err := stopCluster(peers); err != nil {
		return nil, err
	}

	acc := newEngineAcc(false, sched.MapExact)
	grid := clusterSpec(e.seed, 0).Grid()
	for i, pt := range grid {
		if _, err := barePoint(acc, e.tr, 0, pt, clusterSlots, i%clusterSeeds == 0); err != nil {
			return nil, err
		}
	}
	eng, err := acc.layers(e.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range eng {
		out.layers[k] = v
	}
	var submit, get, engine, wait []float64
	for _, j := range jobs {
		submit = append(submit, j.submit)
		get = append(get, j.get)
		engine = append(engine, j.engineMS/1e3)
		wait = append(wait, max(0, j.rt-j.submit-j.get-j.engineMS/1e3))
	}
	out.layers["serve.submit_ms"] = 1e3 * median(submit)
	out.layers["serve.result_fetch_ms"] = 1e3 * median(get)
	out.layers["serve.engine_ms"] = 1e3 * median(engine)
	out.layers["serve.queue_wait_ms"] = 1e3 * median(wait)
	out.layers["serve.polls_per_job"] = float64(polls.Load()) / float64(len(out.mainWall))
	out.layers["cluster.remote_point_ms"] = median(remoteMS)
	out.layers["cluster.local_point_ms"] = median(localMS)
	out.layers["cluster.remote_point_share"] = float64(remote) / float64(points)
	out.layers["trace_overhead_ratio"] = median(e.tr.durations("job")) / median(untracedMain)
	return out, nil
}
