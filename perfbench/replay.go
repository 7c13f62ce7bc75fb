package main

import (
	"fmt"
	"slices"
	"time"

	"ccredf/internal/ccfpr"
	"ccredf/internal/core"
	"ccredf/internal/des"
	"ccredf/internal/network"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/sched"
	"ccredf/internal/sweep"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
	"ccredf/internal/traffic"
	"ccredf/internal/wire"
)

// maxRounds caps the arbitration rounds kept per ring size.
const maxRounds = 4000

// minReplay is the least wall time one layer's replay accumulates, so a
// per-call figure averages over many calls even on a small capture.
const minReplay = 20 * time.Millisecond

// arbRound is one captured arbitration: the sampled requests and the
// clocking master, plus the outcome's distribution-packet content.
type arbRound struct {
	reqs    []core.Request
	master  int
	next    int
	granted ring.NodeSet
}

// capture is an observer that counts every protocol event and copies up to
// maxRounds arbitration rounds. It declares no Interests, so the engine
// emits every event kind to it, as any unfiltered observer would see.
type capture struct {
	nodes  int
	max    int
	events int64
	rounds []arbRound
}

func (c *capture) OnEvent(e *obs.Event) {
	c.events++
	if e.Kind != obs.KindArbitration || len(c.rounds) >= c.max {
		return
	}
	reqs := e.Requests
	if len(reqs) > c.nodes {
		reqs = reqs[:c.nodes] // secondaries ride after the per-node primaries
	}
	c.rounds = append(c.rounds, arbRound{
		reqs:    slices.Clone(reqs),
		master:  e.Node,
		next:    e.Outcome.Master,
		granted: e.Outcome.GrantedSet(),
	})
}

// engineAcc accumulates one workload's engine-layer measurements: chunked
// Network.Run wall time, event counts under a capture observer, and the
// captured rounds per ring shape for the replays.
type engineAcc struct {
	runNs, runSlots int64
	events, capSlot int64
	// wire marks a path that runs the facade's control-codec check.
	wire   bool
	mode   sched.MapMode
	shapes map[int][]arbRound
}

func newEngineAcc(wire bool, mode sched.MapMode) *engineAcc {
	return &engineAcc{wire: wire, mode: mode, shapes: map[int][]arbRound{}}
}

// chunk times one advance of net under a "network.run" span.
func (a *engineAcc) chunk(tr *tracer, parent int, net *network.Network, advance func()) {
	s0 := net.Slot()
	id := tr.open("network.run", parent)
	start := time.Now()
	advance()
	a.runNs += time.Since(start).Nanoseconds()
	tr.close(id)
	a.runSlots += net.Slot() - s0
}

// attach starts capturing up to max rounds on net; collect folds the
// capture in once the run is over.
func (a *engineAcc) attach(net *network.Network, max int) *capture {
	c := &capture{nodes: net.Params().Nodes, max: max}
	net.Attach(c)
	return c
}

func (a *engineAcc) collect(c *capture, slots int64) {
	a.events += c.events
	a.capSlot += slots
	have := a.shapes[c.nodes]
	room := maxRounds - len(have)
	if room > len(c.rounds) {
		room = len(c.rounds)
	}
	a.shapes[c.nodes] = append(have, c.rounds[:room]...)
}

// layers replays the captured rounds through each engine layer's public API
// and returns the engine per-layer metrics. The wire codec is replayed only
// for paths that run it; elsewhere its cost on the path is 0.
func (a *engineAcc) layers(seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	if a.runSlots > 0 {
		out["network.run_ns_per_slot"] = float64(a.runNs) / float64(a.runSlots)
	}
	if a.capSlot > 0 {
		out["obs.events_per_slot"] = float64(a.events) / float64(a.capSlot)
	}
	var (
		coreT, fprT, tdmaT, pathT, feasT, collT, distT time.Duration
		coreN, fprN, tdmaN, pathN, feasN, wireN        int64
		grants, requests, desNodes                     int
	)
	for _, n := range sortedKeys(a.shapes) {
		rounds := a.shapes[n]
		if len(rounds) == 0 {
			continue
		}
		desNodes = max(desNodes, n)
		ca, err := core.NewArbiter(n, a.mode, true)
		if err != nil {
			return nil, err
		}
		t, c := replayArbiter(ca, rounds)
		coreT, coreN = coreT+t, coreN+c
		g, r := grantRatio(ca, rounds)
		grants, requests = grants+g, requests+r
		fa, err := ccfpr.NewArbiter(n, true)
		if err != nil {
			return nil, err
		}
		t, c = replayArbiter(fa, rounds)
		fprT, fprN = fprT+t, fprN+c
		ta, err := tdma.NewArbiter(n, true)
		if err != nil {
			return nil, err
		}
		t, c = replayArbiter(ta, rounds)
		tdmaT, tdmaN = tdmaT+t, tdmaN+c
		pt, pc, ft, fc := replayRing(ring.MustNew(n), rounds)
		pathT, pathN, feasT, feasN = pathT+pt, pathN+pc, feasT+ft, feasN+fc
		if a.wire {
			ct, dt, wc, err := replayWire(ring.MustNew(n), rounds)
			if err != nil {
				return nil, err
			}
			collT, distT, wireN = collT+ct, distT+dt, wireN+wc
		}
	}
	out["core.arbitrate_ns_per_call"] = perCall(coreT, coreN)
	out["ccfpr.arbitrate_ns_per_call"] = perCall(fprT, fprN)
	out["tdma.arbitrate_ns_per_call"] = perCall(tdmaT, tdmaN)
	out["ring.pathlinks_ns_per_call"] = perCall(pathT, pathN)
	out["ring.feasible_ns_per_call"] = perCall(feasT, feasN)
	out["wire.collection_ns_per_slot"] = perCall(collT, wireN)
	out["wire.distribution_ns_per_slot"] = perCall(distT, wireN)
	if requests > 0 {
		out["core.grant_ratio"] = float64(grants) / float64(requests)
	}
	if desNodes > 0 {
		out["des.ns_per_event"] = replayDES(desNodes, seed)
	}
	return out, nil
}

func perCall(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

func sortedKeys(m map[int][]arbRound) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// replayArbiter feeds the captured rounds through arb.Arbitrate, in passes
// until minReplay has elapsed.
func replayArbiter(arb core.Protocol, rounds []arbRound) (time.Duration, int64) {
	var calls int64
	start := time.Now()
	for time.Since(start) < minReplay {
		for _, r := range rounds {
			keep += len(arb.Arbitrate(r.reqs, r.master).Grants)
		}
		calls += int64(len(rounds))
	}
	return time.Since(start), calls
}

// grantRatio is the core arbiter's grants over non-empty requests on the
// captured rounds: how much of the asked-for work spatial reuse admits.
func grantRatio(arb *core.Arbiter, rounds []arbRound) (grants, requests int) {
	for _, r := range rounds {
		for _, q := range r.reqs {
			if !q.Empty() {
				requests++
			}
		}
		grants += len(arb.Arbitrate(r.reqs, r.master).Grants)
	}
	return grants, requests
}

// replayRing runs the per-request ring geometry the arbiters and the wire
// check use: PathLinks and Feasible for every non-empty request, gathered
// before the clock starts so empty slots cost nothing.
func replayRing(r ring.Ring, rounds []arbRound) (pathT time.Duration, pathN int64, feasT time.Duration, feasN int64) {
	type query struct {
		src, master int
		dests       ring.NodeSet
	}
	var qs []query
	for _, rd := range rounds {
		for _, q := range rd.reqs {
			if !q.Empty() {
				qs = append(qs, query{q.Node, rd.master, q.Dests})
			}
		}
	}
	if len(qs) == 0 {
		return 0, 0, 0, 0
	}
	var links ring.LinkSet
	start := time.Now()
	for time.Since(start) < minReplay {
		for _, q := range qs {
			links |= r.PathLinks(q.src, q.dests)
		}
		pathN += int64(len(qs))
	}
	pathT = time.Since(start)
	ok := 0
	start = time.Now()
	for time.Since(start) < minReplay {
		for _, q := range qs {
			if r.Feasible(q.src, q.dests, q.master) {
				ok++
			}
		}
		feasN += int64(len(qs))
	}
	feasT = time.Since(start)
	keep += int(links&1) + ok
	return pathT, pathN, feasT, feasN
}

// replayWire round-trips each captured round's collection and distribution
// packets through the codecs, as the facade's wire check does once per
// slot. Packet assembly happens before the clock starts.
func replayWire(r ring.Ring, rounds []arbRound) (collT, distT time.Duration, calls int64, err error) {
	n := r.Nodes()
	colls := make([]wire.Collection, len(rounds))
	dists := make([]wire.Distribution, len(rounds))
	for i, rd := range rounds {
		reqs := make([]wire.Request, len(rd.reqs))
		for j, q := range rd.reqs {
			if !q.Empty() {
				reqs[j] = wire.Request{Prio: q.Prio, Reserve: r.PathLinks(q.Node, q.Dests), Dests: q.Dests}
			}
		}
		colls[i] = wire.Collection{Requests: reqs}
		dists[i] = wire.Distribution{HPNode: rd.next, Granted: rd.granted.Add(rd.next)}
	}
	var w wire.Writer
	var got wire.Collection
	start := time.Now()
	for pass := 0; time.Since(start) < minReplay; pass++ {
		for i := range colls {
			if err := wire.EncodeCollectionInto(&w, colls[i], n); err != nil {
				return 0, 0, 0, err
			}
			if err := wire.DecodeCollectionInto(&got, w.Bytes(), n); err != nil {
				return 0, 0, 0, err
			}
		}
		if pass == 0 && len(colls) > 0 && !slices.Equal(got.Requests, colls[len(colls)-1].Requests) {
			return 0, 0, 0, fmt.Errorf("wire replay: collection round trip differs")
		}
		calls += int64(len(colls))
	}
	collT = time.Since(start)
	var dcalls int64
	start = time.Now()
	for time.Since(start) < minReplay {
		for i := range dists {
			if err := wire.EncodeDistributionInto(&w, dists[i], n); err != nil {
				return 0, 0, 0, err
			}
			d, err := wire.DecodeDistribution(w.Bytes(), n)
			if err != nil {
				return 0, 0, 0, err
			}
			keep += d.HPNode
		}
		dcalls += int64(len(dists))
	}
	// Report both per captured slot: scale the distribution time to the
	// collection replay's call count.
	distT = time.Duration(float64(time.Since(start)) * float64(calls) / float64(dcalls))
	return collT, distT, calls, nil
}

// desEvents is how many events the des replay executes.
const desEvents = 1 << 20

// replayDES drives a des.Simulator with one self-rescheduling source per
// ring node — the heap depth the engine's per-node traffic generators keep —
// and returns the wall ns per executed event.
func replayDES(nodes int, seed uint64) float64 {
	sim := des.New()
	src := rng.New(seed)
	delays := make([]timing.Time, 1024)
	for i := range delays {
		delays[i] = timing.Time(1 + src.Intn(1000))
	}
	k := 0
	var fire des.Handler
	fire = func(timing.Time) {
		k++
		sim.PostAfter(delays[k&1023], fire)
	}
	for i := 0; i < nodes; i++ {
		sim.PostAfter(delays[i], fire)
	}
	start := time.Now()
	for i := 0; i < desEvents; i++ {
		sim.Step()
	}
	return float64(time.Since(start).Nanoseconds()) / desEvents
}

// barePoint rebuilds one single-ring sweep grid point exactly as sweep.Run
// does — forced UniformRTSet connections on a bare network.Network, without
// the facade's observers — and advances it in 512-slot chunks under
// "network.run" spans. With capture set it records the run for the
// replays instead of timing it. The delivered count lets the caller check the rebuild against
// the sweep's own outcome.
func barePoint(acc *engineAcc, tr *tracer, parent int, pt sweep.Point, horizonSlots int64, capture bool) (int64, error) {
	p := timing.DefaultParams(pt.Nodes)
	var proto core.Protocol
	var err error
	switch pt.Protocol {
	case "ccr-edf":
		proto, err = core.NewArbiter(pt.Nodes, sched.MapExact, true)
	case "cc-fpr":
		proto, err = ccfpr.NewArbiter(pt.Nodes, true)
	case "tdma":
		proto, err = tdma.NewArbiter(pt.Nodes, true)
	default:
		err = fmt.Errorf("unknown protocol %q", pt.Protocol)
	}
	if err != nil {
		return 0, err
	}
	net, err := network.New(network.Config{Params: p, Protocol: proto, Seed: pt.Seed})
	if err != nil {
		return 0, err
	}
	if pt.Locality != "uniform" {
		return 0, fmt.Errorf("bare point: locality %q not rebuilt", pt.Locality)
	}
	for _, c := range traffic.UniformRTSet(pt.Nodes, pt.Nodes, pt.Load, p, traffic.UniformDest, rng.New(pt.Seed)) {
		if _, err := net.ForceConnection(c); err != nil {
			return 0, err
		}
	}
	if capture {
		c := acc.attach(net, maxRounds/4)
		net.RunSlots(horizonSlots)
		acc.collect(c, net.Slot())
		return net.Metrics().MessagesDelivered.Value(), nil
	}
	for done := int64(0); done < horizonSlots; done += 512 {
		step := min(int64(512), horizonSlots-done)
		acc.chunk(tr, parent, net, func() { net.RunSlots(step) })
	}
	return net.Metrics().MessagesDelivered.Value(), nil
}
