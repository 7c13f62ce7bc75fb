package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
)

func TestBatchesGrouping(t *testing.T) {
	pts := []Point{
		{Protocol: "ccr-edf", Nodes: 8, Seed: 1},
		{Protocol: "ccr-edf", Nodes: 8, Seed: 2},
		{Protocol: "cc-fpr", Nodes: 8, Seed: 1},
		{Protocol: "ccr-edf", Nodes: 16, Seed: 1},
		{Protocol: "ccr-edf", Nodes: 8, Seed: 3},
		{Protocol: "ccr-edf", Nodes: 8, Seed: 4, Rings: 3},
		{Protocol: "ccr-edf", Nodes: 8, Seed: 5},
	}
	got := Batches(pts, 2)
	want := [][]int{
		{0, 1}, // ccr-edf/8, first chunk
		{4, 6}, // ccr-edf/8, second chunk
		{2},    // cc-fpr/8
		{3},    // ccr-edf/16
		{5},    // multi-ring: always singleton, even below maxBatch
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Batches = %v, want %v", got, want)
	}

	// Every index appears exactly once — the scatter contract.
	seen := make(map[int]bool)
	for _, g := range got {
		for _, i := range g {
			if seen[i] {
				t.Fatalf("index %d grouped twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("grouped %d of %d points", len(seen), len(pts))
	}
}

func TestBatchesClampsMaxBatch(t *testing.T) {
	pts := []Point{{Protocol: "ccr-edf", Nodes: 8, Seed: 1}, {Protocol: "ccr-edf", Nodes: 8, Seed: 2}}
	got := Batches(pts, 0)
	if len(got) != 2 {
		t.Fatalf("maxBatch 0 should degrade to singletons, got %v", got)
	}
}

// TestBatchedEqualsSequential is the batched sweep's correctness contract:
// the same mixed grid — several protocols, two ring sizes, a faulted slice
// and a bridged multi-ring slice — must produce a byte-identical CSV whether
// the points run one-by-one or fused into batched engine passes.
func TestBatchedEqualsSequential(t *testing.T) {
	pts := Grid(
		[]string{"ccr-edf", "cc-fpr", "tdma"},
		[]int{8, 12},
		[]float64{0.4},
		[]string{"uniform"},
		[]uint64{1, 2, 3},
	)
	faulted := WithKnobs(Grid([]string{"ccr-edf"}, []int{8}, []float64{0.4}, []string{"uniform"}, []uint64{7, 8}), Knobs{Faults: "coll=0.01"})
	multi := WithRings(Grid([]string{"ccr-edf"}, []int{8}, []float64{0.3}, []string{"uniform"}, []uint64{9}), 2)
	pts = append(pts, faulted...)
	pts = append(pts, multi...)

	const horizon = 600
	sequential := Run(pts, 2, horizon)
	batched := RunBatched(pts, 2, 4, horizon)

	for i := range sequential {
		if !reflect.DeepEqual(sequential[i], batched[i]) {
			t.Errorf("point %d (%v) diverges:\nsequential %+v\nbatched    %+v",
				i, pts[i], sequential[i], batched[i])
		}
	}

	var seq, bat bytes.Buffer
	if err := WriteCSV(&seq, sequential); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&bat, batched); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), bat.Bytes()) {
		t.Fatal("batched sweep CSV differs from sequential sweep CSV")
	}
}

// A group containing a bad point must fall back to sequential execution and
// report the error on exactly that point, leaving its batch-mates intact.
func TestBatchedFallbackOnBadPoint(t *testing.T) {
	pts := []Point{
		{Protocol: "ccr-edf", Nodes: 8, Load: 0.4, Locality: "uniform", Seed: 1},
		{Protocol: "ccr-edf", Nodes: 8, Load: 0.4, Locality: "uniform", Seed: 2, Knobs: Knobs{Faults: "bogus-spec"}},
	}
	outs := RunBatched(pts, 1, 4, 300)
	if outs[0].Err != nil {
		t.Fatalf("healthy batch-mate failed: %v", outs[0].Err)
	}
	if outs[0].Delivered == 0 {
		t.Fatal("healthy batch-mate delivered nothing")
	}
	if outs[1].Err == nil {
		t.Fatal("bad fault spec should error")
	}
}

func TestRunBatchedCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := smallGrid()
	outs, err := RunBatchedCtx(ctx, pts, 2, 4, 300)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, o := range outs {
		if o.Point != pts[i] {
			t.Fatalf("outcome %d carries point %v, want %v", i, o.Point, pts[i])
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("outcome %d err = %v, want context.Canceled", i, o.Err)
		}
	}
}
