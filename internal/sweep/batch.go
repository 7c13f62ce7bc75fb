package sweep

import (
	"context"

	"ccredf/internal/network"
	"ccredf/internal/runner"
)

// DefaultBatch is the replica count a batched sweep group targets. Eight is
// where the batched engine's effective ns/slot curve flattens on the bench
// workload (BENCH_slot_engine.json): enough replicas to amortise the
// per-pass overhead — timing-table lookups, chunk scheduling, cache warm-up
// — without growing the arena past cache-friendly sizes.
const DefaultBatch = 8

// Batches partitions the grid into batched execution groups: indices of
// points that share an engine shape (protocol and ring size) are grouped, in
// grid order, into chunks of at most maxBatch, each of which one
// network.Batch can run as fused replicas. Bridged multi-ring points
// (Rings > 1) run through network.NewMulti rather than the batched engine,
// and churn points (Churn != "") and operating-mode points
// (Mode != "") drive live admission through the sequential engine, so
// all three always form singleton groups. Group order is
// deterministic: shapes in order of first appearance, chunks in grid order
// within a shape.
//
// Grouping never changes results — each replica keeps its own simulation
// state and rng stream — it only changes how many engine passes the grid
// costs.
func Batches(points []Point, maxBatch int) [][]int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	type shape struct {
		protocol string
		nodes    int
		rings    int
		churn    bool
		mode     bool
	}
	byShape := make(map[shape][]int)
	var order []shape
	for i, pt := range points {
		k := shape{pt.Protocol, pt.Nodes, pt.Rings, pt.Churn != "", pt.Mode != ""}
		if k.rings < 1 {
			k.rings = 1
		}
		if _, seen := byShape[k]; !seen {
			order = append(order, k)
		}
		byShape[k] = append(byShape[k], i)
	}
	var groups [][]int
	for _, k := range order {
		idxs := byShape[k]
		limit := maxBatch
		if k.rings > 1 || k.churn || k.mode {
			limit = 1
		}
		for len(idxs) > limit {
			groups = append(groups, idxs[:limit:limit])
			idxs = idxs[limit:]
		}
		groups = append(groups, idxs)
	}
	return groups
}

// runBatch executes one group of same-shape points as fused replicas of a
// single batched engine, polling ctx between chunks like runPoint. The
// outcomes are index-aligned with idxs.
//
// Any error during setup — knob parsing, protocol construction, batch
// assembly, forced admission — drops the whole group back to the sequential
// runPoint path, which reproduces the exact per-point outcome (including
// which point carries the error). Batching is a throughput optimisation and
// must never change what a sweep reports.
func runBatch(ctx context.Context, points []Point, idxs []int, horizonSlots int64) []Outcome {
	outs := make([]Outcome, len(idxs))
	for j, i := range idxs {
		outs[j] = Outcome{Point: points[i]}
	}
	fallback := func() []Outcome {
		for j, i := range idxs {
			outs[j] = runPoint(ctx, points[i], horizonSlots)
		}
		return outs
	}
	if len(idxs) == 1 {
		return fallback()
	}
	cfgs := make([]network.Config, len(idxs))
	specs := make([]Specs, len(idxs))
	for j, i := range idxs {
		var err error
		if cfgs[j], specs[j], err = pointConfig(points[i]); err != nil {
			return fallback()
		}
	}
	b, err := network.NewBatch(cfgs)
	if err != nil {
		return fallback()
	}
	for j, i := range idxs {
		if err := loadPoint(b.Net(j), points[i], specs[j]); err != nil {
			return fallback()
		}
	}
	if err := runChunks(ctx, horizonSlots, b.RunSlots); err != nil {
		for j := range outs {
			outs[j].Err = err
		}
		return outs
	}
	for j := range idxs {
		collect(b.Net(j), &outs[j])
	}
	return outs
}

// RunBatched is Run with same-shape points fused into batched engine passes
// of up to maxBatch replicas (≤ 0 selects DefaultBatch, 1 disables fusion).
// Outcomes are in grid order and identical to Run's — the sweep CSV is
// byte-for-byte the same — batching only cuts the per-point engine overhead.
func RunBatched(points []Point, workers, maxBatch int, horizonSlots int64) []Outcome {
	outcomes, _ := RunBatchedCtx(context.Background(), points, workers, maxBatch, horizonSlots)
	return outcomes
}

// RunBatchedCtx is RunBatched with cooperative cancellation, mirroring
// RunCtx: cancellation stops every group at its next slot chunk, and points
// that never ran carry the context error in Err.
func RunBatchedCtx(ctx context.Context, points []Point, workers, maxBatch int, horizonSlots int64) ([]Outcome, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultBatch
	}
	groups := Batches(points, maxBatch)
	outcomes, err := runner.MapGroupsCtx(ctx, len(points), groups, workers, func(g int) []Outcome {
		return runBatch(ctx, points, groups[g], horizonSlots)
	})
	if err != nil {
		for i := range outcomes {
			if outcomes[i].Point != points[i] {
				outcomes[i] = Outcome{Point: points[i], Err: err}
			}
		}
	}
	return outcomes, err
}
