package main

import (
	"bytes"
	"fmt"
	"time"

	"ccredf/internal/sched"
	"ccredf/internal/sweep"
)

// The sweep-grid workload: a ccr-sweep-shaped grid on 2 workers.
const (
	sweepSlots   = 3000
	sweepWorkers = 2
	sweepSeeds   = 8
)

// sweepPoints is {ccr-edf,cc-fpr,tdma} × {8,16} nodes × {0.3,0.6,0.9} load
// × 8 seeds drawn from the workload seed: 144 points.
func sweepPoints(seed uint64) []sweep.Point {
	seeds := make([]uint64, sweepSeeds)
	for i := range seeds {
		seeds[i] = seed*sweepSeeds + uint64(i) + 1
	}
	return sweep.Grid([]string{"ccr-edf", "cc-fpr", "tdma"}, []int{8, 16}, []float64{0.3, 0.6, 0.9}, []string{"uniform"}, seeds)
}

// sweepCSV renders outcomes as ccr-sweep's CSV, failing on any point error.
func sweepCSV(outs []sweep.Outcome) ([]byte, error) {
	for _, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("point %s: %w", o.Point, o.Err)
		}
	}
	var b bytes.Buffer
	if err := sweep.WriteCSV(&b, outs); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// sameCSV accepts got only when it is byte-identical to want.
func sameCSV(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("sweep CSV differs (%d bytes vs %d)", len(got), len(want))
	}
	return nil
}

func runSweepGrid(e *env) (*outcome, error) {
	var points []sweep.Point
	setup, err := timeSetup(func(bool) error {
		points = sweepPoints(e.seed)
		// Warm up with one batched pass over the whole grid.
		_, err := sweepCSV(sweep.RunBatched(points, sweepWorkers, sweep.DefaultBatch, sweepSlots))
		return err
	})
	if err != nil {
		return nil, err
	}
	reference := sweep.Run(points, sweepWorkers, sweepSlots)
	want, err := sweepCSV(reference)
	if err != nil {
		return nil, fmt.Errorf("reference grid: %w", err)
	}
	if err := mustReject("sweep CSV", sameCSV(bytes.Replace(want, []byte(","), []byte(";"), 1), want)); err != nil {
		return nil, err
	}

	out := &outcome{setup: setup, layers: map[string]float64{}}
	batched := func() error {
		csv, err := sweepCSV(sweep.RunBatched(points, sweepWorkers, sweep.DefaultBatch, sweepSlots))
		if err != nil {
			return err
		}
		return sameCSV(csv, want)
	}
	unbatched := func() error {
		csv, err := sweepCSV(sweep.Run(points, sweepWorkers, sweepSlots))
		if err != nil {
			return err
		}
		return sameCSV(csv, want)
	}
	timeOp := func(tr *tracer, name string, op func() error, walls *[]float64) {
		id := tr.open(name, 0)
		start := time.Now()
		err := op()
		*walls = append(*walls, time.Since(start).Seconds())
		tr.close(id)
		e.checks.verify(err)
	}
	var untracedMain []float64
	plain, traced := e.phases()
	heap := startHeap()
	for i, phase := range []time.Duration{plain, traced} {
		var tr *tracer
		if i == 1 {
			tr = e.tr
		}
		for n, end := 0, time.Now().Add(phase); phase > 0 && time.Now().Before(end); n++ {
			// Alternate which path runs first, so neither always inherits
			// the other's warm caches.
			if n%2 == 1 {
				timeOp(tr, "sweep.unbatched", unbatched, &out.refWall)
			}
			timeOp(tr, "sweep.batched", batched, &out.mainWall)
			out.work += float64(len(points))
			if i == 0 {
				untracedMain = append(untracedMain, out.mainWall[len(out.mainWall)-1])
			}
			if n%2 == 0 {
				timeOp(tr, "sweep.unbatched", unbatched, &out.refWall)
			}
		}
	}
	out.heapPeak = heap.end()
	out.throughput = out.work / sum(out.mainWall)
	out.detail = []named{
		{"sweep_points_per_s", out.work / sum(out.mainWall), "1/s"},
		{"sweep_unbatched_points_per_s", float64(len(points)*len(out.refWall)) / sum(out.refWall), "1/s"},
		{"sweep_grids", float64(len(out.mainWall) + len(out.refWall)), "count"},
	}
	if !e.traced {
		return out, nil
	}

	// Per point alone, then every point rebuilt on the bare engine (checked
	// against the sweep's own outcome) for network.run, then a few points
	// captured for the replays.
	var pointSecs float64
	for _, pt := range points {
		id := e.tr.open("sweep.point", 0)
		start := time.Now()
		o := sweep.Run([]sweep.Point{pt}, 1, sweepSlots)[0]
		pointSecs += time.Since(start).Seconds()
		e.tr.close(id)
		if o.Err != nil {
			return nil, fmt.Errorf("point %s: %w", pt, o.Err)
		}
	}
	acc := newEngineAcc(false, sched.MapExact)
	root := e.tr.open("bare.grid", 0)
	for i, pt := range points {
		delivered, err := barePoint(acc, e.tr, root, pt, sweepSlots, false)
		if err == nil && delivered != reference[i].Delivered {
			err = fmt.Errorf("bare rebuild of %s delivered %d, sweep delivered %d", pt, delivered, reference[i].Delivered)
		}
		e.checks.verify(err)
	}
	e.tr.close(root)
	groups := sweep.Batches(points, sweep.DefaultBatch)
	for _, g := range groups {
		if points[g[0]].Seed != points[0].Seed {
			continue // capture each group's first seed only
		}
		if _, err := barePoint(acc, nil, 0, points[g[0]], sweepSlots, true); err != nil {
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
	sizes := 0
	for _, g := range groups {
		sizes += len(g)
	}
	out.layers["sweep.point_ms"] = 1e3 * median(e.tr.durations("sweep.point"))
	out.layers["sweep.batch_group_size"] = float64(sizes) / float64(len(groups))
	out.layers["runner.busy_ratio"] = pointSecs / (sweepWorkers * median(out.refWall))
	out.layers["trace_overhead_ratio"] = median(e.tr.durations("sweep.batched")) / median(untracedMain)
	return out, nil
}
