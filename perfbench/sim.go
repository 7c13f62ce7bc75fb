package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"ccredf"
	"ccredf/internal/sched"
	"ccredf/internal/serve"
	"ccredf/internal/sweep"
	"ccredf/scenario"
)

// The sim-ring32 workload: ccr-sim's default load on a 32-node ring.
const (
	simNodes  = 32
	simSlots  = 20000 // ccr-sim's default -slots
	simRT     = 0.7   // admitted real-time utilisation target
	simBE     = 0.2   // best-effort offered load
	simWarmup = 5000  // slots run once per set-up
)

// simScenario builds the scenario ccr-sim builds from its flags for seed:
// real-time connections drawn and admitted exactly as its loop does, up to
// simRT, plus per-node best-effort Poisson sources at simBE.
func simScenario(seed uint64) (*scenario.Scenario, error) {
	adm, err := ccredf.New(ccredf.DefaultConfig(simNodes))
	if err != nil {
		return nil, err
	}
	slot := adm.Params().SlotTime()
	rnd := ccredf.NewRand(seed)
	sc := &scenario.Scenario{Nodes: simNodes, Seed: seed, HorizonSlots: simSlots}
	for attempts := 0; attempts < 256 && adm.Admission().Utilisation() < simRT; attempts++ {
		from := rnd.Intn(simNodes)
		to := ccredf.UniformDest(rnd, from, simNodes)
		period := 5 + rnd.Intn(40)
		slots := 1 + rnd.Intn(2)
		if slots > period {
			continue
		}
		c := ccredf.Connection{Src: from, Dests: ccredf.Node(to), Period: ccredf.Time(period) * slot, Slots: slots}
		if _, err := adm.OpenConnection(c); err == nil {
			sc.Connections = append(sc.Connections, scenario.Connection{Src: from, Dests: []int{to}, PeriodSlots: int64(period), Slots: slots})
		}
	}
	for i := 0; i < simNodes; i++ {
		sc.Poisson = append(sc.Poisson, scenario.Poisson{
			Node: i, Class: "be", MeanInterarrivalSlots: int64(simNodes / simBE), Slots: 1, RelDeadlineSlots: 500,
		})
	}
	return sc, sc.Validate()
}

// checkSimSummary accepts a run's encoded summary only when it is the
// seed's reference summary and reports no wire errors or invariant
// violations.
func checkSimSummary(b []byte, want [32]byte) error {
	var s serve.Summary
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	if s.Snapshot.WireErrors != 0 || s.Snapshot.Violations != 0 {
		return fmt.Errorf("summary: %d wire errors, %d invariant violations", s.Snapshot.WireErrors, s.Snapshot.Violations)
	}
	if s.Snapshot.Slots == 0 {
		return fmt.Errorf("summary: no slots ran")
	}
	if sha256.Sum256(b) != want {
		return fmt.Errorf("summary digest differs from the seed's reference run")
	}
	return nil
}

// simRun is one ccr-sim-shaped run: Build, Run to the horizon, Summarize.
// With tr set the build, each 512-slot chunk (timed into acc) and the
// summary are spans; capture records the run into acc for the replays
// instead; check attaches the invariant checker.
func simRun(sc *scenario.Scenario, tr *tracer, parent int, acc *engineAcc, capture, check bool) ([]byte, error) {
	id := tr.open("scenario.build", parent)
	if check {
		sc.CheckInvariants = true
		defer func() { sc.CheckInvariants = false }()
	}
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
		chunk := ccredf.Time(512) * (res.Net.Params().SlotTime() + res.Net.Params().MaxHandoverTime())
		for now := res.Net.Now(); now < res.Horizon; now = res.Net.Now() {
			next := min(now+chunk, res.Horizon)
			acc.chunk(tr, parent, net, func() { res.Net.Run(next) })
		}
	default:
		res.Net.Run(res.Horizon)
	}
	id = tr.open("serve.summarize", parent)
	b, err := serve.Summarize(res.Net, "").Encode()
	tr.close(id)
	return b, err
}

// simRefPoint is the reference path: the same ring size and horizon as one
// ccr-sweep grid point, which runs the bare engine without the facade's
// control-codec check.
func simRefPoint(seed uint64) sweep.Point {
	return sweep.Point{Protocol: "ccr-edf", Nodes: simNodes, Load: simRT + simBE, Locality: "uniform", Seed: seed}
}

func runSim(e *env) (*outcome, error) {
	var sc *scenario.Scenario
	setup, err := timeSetup(func(bool) error {
		var err error
		if sc, err = simScenario(e.seed); err != nil {
			return err
		}
		res, err := sc.Build()
		if err != nil {
			return err
		}
		res.Net.RunSlots(simWarmup)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The reference summary comes from a run with the invariant checker
	// attached; every measured run must reproduce it byte for byte.
	refBytes, err := simRun(sc, nil, 0, nil, false, true)
	if err != nil {
		return nil, err
	}
	want := sha256.Sum256(refBytes)
	if err := checkSimSummary(refBytes, want); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if err := mustReject("summary", checkSimSummary(bytes.Replace(refBytes, []byte(`"slots":`), []byte(`"slots":1`), 1), want)); err != nil {
		return nil, err
	}
	refPoint := []sweep.Point{simRefPoint(e.seed)}
	wantRef := sweep.Run(refPoint, 1, simSlots)[0]
	if wantRef.Err != nil {
		return nil, fmt.Errorf("reference point: %w", wantRef.Err)
	}
	checkRef := func(o sweep.Outcome) error {
		if o.Err != nil || o.Delivered != wantRef.Delivered || o.MissRatio != wantRef.MissRatio {
			return fmt.Errorf("reference point %s: delivered %d err %v, want delivered %d", o.Point, o.Delivered, o.Err, wantRef.Delivered)
		}
		return nil
	}

	out := &outcome{setup: setup, layers: map[string]float64{}}
	acc := newEngineAcc(true, sched.Map5Bit)
	var untracedMain []float64
	plain, traced := e.phases()
	heap := startHeap()
	for i, phase := range []time.Duration{plain, traced} {
		var tr *tracer
		if i == 1 {
			tr = e.tr
		}
		for end := time.Now().Add(phase); phase > 0 && time.Now().Before(end); {
			root := tr.open("op", 0)
			start := time.Now()
			b, err := simRun(sc, tr, root, acc, false, false)
			wall := time.Since(start).Seconds()
			tr.close(root)
			if err == nil {
				err = checkSimSummary(b, want)
			}
			e.checks.verify(err)
			if i == 0 {
				untracedMain = append(untracedMain, wall)
			}
			out.mainWall = append(out.mainWall, wall)
			out.work += simSlots

			id := tr.open("sweep.point", 0)
			start = time.Now()
			o := sweep.Run(refPoint, 1, simSlots)[0]
			out.refWall = append(out.refWall, time.Since(start).Seconds())
			tr.close(id)
			e.checks.verify(checkRef(o))
		}
	}
	out.heapPeak = heap.end()
	out.throughput = out.work / sum(out.mainWall)
	mainP50 := median(out.mainWall)
	out.detail = []named{
		{"sim_slots_per_s", out.work / sum(out.mainWall), "1/s"},
		{"sim_run_p50_ms", 1e3 * mainP50, "ms"},
		{"sim_ref_point_p50_ms", 1e3 * median(out.refWall), "ms"},
		{"sim_runs", float64(len(out.mainWall)), "count"},
	}
	if !e.traced {
		return out, nil
	}

	// Traced run: the measured phase's second part carried spans; now
	// capture one run's arbitration rounds and replay them layer by layer.
	b, err := simRun(sc, nil, 0, acc, true, false)
	if err == nil {
		err = checkSimSummary(b, want)
	}
	e.checks.verify(err)
	eng, err := acc.layers(e.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range eng {
		out.layers[k] = v
	}
	tracedMain := e.tr.durations("op")
	out.layers["scenario.build_ms"] = 1e3 * median(e.tr.durations("scenario.build"))
	out.layers["serve.summarize_ms"] = 1e3 * median(e.tr.durations("serve.summarize"))
	out.layers["sweep.point_ms"] = 1e3 * median(e.tr.durations("sweep.point"))
	out.layers["trace_overhead_ratio"] = median(tracedMain) / median(untracedMain)
	return out, nil
}
