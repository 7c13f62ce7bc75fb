package sweep

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func smallGrid() []Point {
	return Grid(
		[]string{"ccr-edf", "cc-fpr"},
		[]int{8},
		[]float64{0.3, 0.8},
		[]string{"uniform"},
		[]uint64{1, 2},
	)
}

func TestGridEnumeration(t *testing.T) {
	pts := smallGrid()
	if len(pts) != 2*1*2*1*2 {
		t.Fatalf("grid size %d", len(pts))
	}
	// Deterministic order: protocol outermost, seed innermost.
	if pts[0].Protocol != "ccr-edf" || pts[0].Seed != 1 {
		t.Fatalf("first point %v", pts[0])
	}
	if pts[1].Seed != 2 {
		t.Fatalf("second point %v", pts[1])
	}
	if pts[len(pts)-1].Protocol != "cc-fpr" {
		t.Fatalf("last point %v", pts[len(pts)-1])
	}
}

func TestRunProducesResults(t *testing.T) {
	outs := Run(smallGrid(), 4, 300)
	if len(outs) != 8 {
		t.Fatalf("%d outcomes", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("point %d failed: %v", i, o.Err)
		}
		if o.Delivered == 0 {
			t.Fatalf("point %v delivered nothing", o.Point)
		}
		if o.GapFraction < 0 || o.GapFraction > 1 {
			t.Fatalf("gap fraction %v", o.GapFraction)
		}
	}
}

// TestParallelEqualsSerial: the outcome slice must be identical for any
// worker count — the determinism contract.
func TestParallelEqualsSerial(t *testing.T) {
	pts := smallGrid()
	serial := Run(pts, 1, 300)
	parallel := Run(pts, 8, 300)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("point %d differs: serial %+v vs parallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	outs := Run([]Point{{Protocol: "atm", Nodes: 8, Load: 0.5, Locality: "uniform", Seed: 1}}, 1, 100)
	if outs[0].Err == nil {
		t.Fatal("unknown protocol should error")
	}
}

func TestWriteCSV(t *testing.T) {
	outs := Run(smallGrid()[:2], 2, 200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "protocol,nodes,load") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ccr-edf,8,0.3000,uniform,1,") {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestCSVHeaderPinned pins the CSV column order: remote (ccr-sweep -remote)
// and local runs must emit byte-identical files, so any header change has to
// land in SweepOutcome and its conversions at the same time.
func TestCSVHeaderPinned(t *testing.T) {
	const want = "protocol,nodes,load,locality,seed,delivered,miss_ratio,p99_latency_us,reuse_factor,gap_fraction,faults_injected,faults_recovered,ring_util,cross_miss_ratio,admitted_hard,admitted_firm,admitted_be,evicted_hard,evicted_firm,evicted_be,missed_hard,missed_firm,missed_be,mode_transitions,mode_shed_be,bridge_dropped,bridge_overflowed,error"
	if CSVHeader != want {
		t.Fatalf("CSVHeader = %q, want %q", CSVHeader, want)
	}
}

func TestMultiRingPoint(t *testing.T) {
	pt := Point{Protocol: "ccr-edf", Nodes: 8, Load: 0.3, Locality: "uniform", Seed: 1, Rings: 3}
	out := runPoint(context.Background(), pt, 2000)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Delivered == 0 {
		t.Fatal("multi-ring point delivered nothing")
	}
	if len(out.RingUtil) != 3 {
		t.Fatalf("RingUtil has %d entries, want 3", len(out.RingUtil))
	}
	for i, u := range out.RingUtil {
		if u <= 0 || u > 1 {
			t.Fatalf("ring %d utilisation %v outside (0,1]", i, u)
		}
	}
	if out.CrossMissRatio != 0 {
		t.Fatalf("cross miss ratio %v on an uncontended chain", out.CrossMissRatio)
	}
	again := runPoint(context.Background(), pt, 2000)
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("multi-ring point not reproducible:\n%+v\n%+v", out, again)
	}
	if got := pt.String(); got != "ccr-edf/N8/U0.30/uniform/s1/R3" {
		t.Fatalf("String() = %q", got)
	}
}

// TestChurnPoint: a churn spec on a sweep point drives live admission and
// populates the per-criticality columns, deterministically, with hard
// connections never evicted or missing deadlines.
func TestChurnPoint(t *testing.T) {
	pt := Point{Protocol: "ccr-edf", Nodes: 16, Load: 0.2, Locality: "uniform", Seed: 7,
		Knobs: Knobs{Churn: "rate=200000,hold=1500"}}
	out := runPoint(context.Background(), pt, 20000)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var admitted int64
	for _, a := range out.Admitted {
		admitted += a
	}
	if admitted == 0 {
		t.Fatal("churn point admitted no connections")
	}
	if out.Evicted[0] != 0 {
		t.Fatalf("%d hard evictions", out.Evicted[0])
	}
	if out.Missed[0] != 0 {
		t.Fatalf("%d hard deadline misses", out.Missed[0])
	}
	if out.Evicted[1]+out.Evicted[2] == 0 {
		t.Fatal("no firm/best-effort evictions under overload churn")
	}
	again := runPoint(context.Background(), pt, 20000)
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("churn point not reproducible:\n%+v\n%+v", out, again)
	}
	if got := pt.String(); got != "ccr-edf/N16/U0.20/uniform/s7/c[rate=200000,hold=1500]" {
		t.Fatalf("String() = %q", got)
	}
}

// TestChurnPointBatchedMatches: churn points form singleton batch groups, so
// RunBatched must reproduce Run exactly even when mixed with batchable points.
func TestChurnPointBatchedMatches(t *testing.T) {
	pts := smallGrid()[:2]
	pts = append(pts, Point{Protocol: "ccr-edf", Nodes: 8, Load: 0.2, Locality: "uniform", Seed: 3,
		Knobs: Knobs{Churn: "rate=100000,hold=1000"}})
	want := Run(pts, 1, 2000)
	got := RunBatched(pts, 2, DefaultBatch, 2000)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("outcome %d diverges:\n%+v\n%+v", i, got[i], want[i])
		}
	}
	groups := Batches(pts, DefaultBatch)
	for _, g := range groups {
		for _, i := range g {
			if pts[i].Churn != "" && len(g) != 1 {
				t.Fatalf("churn point %d in group of %d", i, len(g))
			}
		}
	}
}

// TestModePoint: an operating-mode spec on an overloaded point (forced load
// past the schedulable bound) drives the hysteresis controller through at
// least one transition, deterministically.
func TestModePoint(t *testing.T) {
	pt := Point{Protocol: "ccr-edf", Nodes: 16, Load: 1.5, Locality: "uniform", Seed: 7,
		Knobs: Knobs{Mode: "window=64,dmiss=0.01,cmiss=0.05,cool=2"}}
	out := runPoint(context.Background(), pt, 20000)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.ModeTransitions == 0 {
		t.Fatal("overloaded mode point never left Normal")
	}
	again := runPoint(context.Background(), pt, 20000)
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("mode point not reproducible:\n%+v\n%+v", out, again)
	}
	if got := pt.String(); got != "ccr-edf/N16/U1.50/uniform/s7/m[window=64,dmiss=0.01,cmiss=0.05,cool=2]" {
		t.Fatalf("String() = %q", got)
	}
}

// TestModePointBatchedMatches: mode points form singleton batch groups.
func TestModePointBatchedMatches(t *testing.T) {
	pts := smallGrid()[:2]
	pts = append(pts, Point{Protocol: "ccr-edf", Nodes: 8, Load: 0.2, Locality: "uniform", Seed: 3,
		Knobs: Knobs{Mode: "window=64"}})
	want := Run(pts, 1, 2000)
	got := RunBatched(pts, 2, DefaultBatch, 2000)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("outcome %d diverges:\n%+v\n%+v", i, got[i], want[i])
		}
	}
	for _, g := range Batches(pts, DefaultBatch) {
		for _, i := range g {
			if pts[i].Mode != "" && len(g) != 1 {
				t.Fatalf("mode point %d in group of %d", i, len(g))
			}
		}
	}
}

func TestModeSpecInvalid(t *testing.T) {
	pt := Point{Protocol: "ccr-edf", Nodes: 8, Load: 0.2, Locality: "uniform", Seed: 1,
		Knobs: Knobs{Mode: "dmiss=2"}}
	out := runPoint(context.Background(), pt, 100)
	if out.Err == nil {
		t.Fatal("invalid mode spec should fail the point")
	}
}

func TestChurnSpecInvalid(t *testing.T) {
	pt := Point{Protocol: "ccr-edf", Nodes: 8, Load: 0.2, Locality: "uniform", Seed: 1,
		Knobs: Knobs{Churn: "rate=0"}}
	out := runPoint(context.Background(), pt, 100)
	if out.Err == nil {
		t.Fatal("invalid churn spec should fail the point")
	}
}

func TestTableRendering(t *testing.T) {
	outs := Run(smallGrid()[:1], 1, 200)
	outs = append(outs, Outcome{Point: Point{Protocol: "atm"}, Err: errFake})
	tab := Table(outs)
	if tab.Rows() != 2 {
		t.Fatalf("rows = %d", tab.Rows())
	}
	if !strings.Contains(tab.String(), "fake") {
		t.Fatal("error row missing")
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

// TestSweepShape: at equal offered load, CCR-EDF's miss ratio never exceeds
// CC-FPR's across the small grid — the paper's headline, here as a sweep
// regression.
func TestSweepShape(t *testing.T) {
	pts := Grid([]string{"ccr-edf", "cc-fpr"}, []int{8}, []float64{0.9}, []string{"opposite"}, []uint64{1})
	outs := Run(pts, 2, 2000)
	if outs[0].Err != nil || outs[1].Err != nil {
		t.Fatal(outs[0].Err, outs[1].Err)
	}
	if outs[0].MissRatio > outs[1].MissRatio {
		t.Fatalf("EDF miss ratio %v above CC-FPR %v", outs[0].MissRatio, outs[1].MissRatio)
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	pts := Grid([]string{"ccr-edf"}, []int{8}, []float64{0.5}, []string{"uniform"}, []uint64{1, 2, 3, 4})
	for i := 0; i < b.N; i++ {
		Run(pts, 4, 200)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	// workers <= 0 selects GOMAXPROCS; the result must match serial.
	pts := smallGrid()[:2]
	a := Run(pts, 0, 200)
	b := Run(pts, 1, 200)
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("default-worker outcome %d differs", i)
		}
	}
}

func TestPointString(t *testing.T) {
	p := Point{Protocol: "ccr-edf", Nodes: 8, Load: 0.5, Locality: "uniform", Seed: 3}
	if got := p.String(); got != "ccr-edf/N8/U0.50/uniform/s3" {
		t.Fatalf("String() = %q", got)
	}
}

func TestRunCtxCancelSkipsRemainingPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := smallGrid()
	outs, err := RunCtx(ctx, pts, 2, 300)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(outs) != len(pts) {
		t.Fatalf("%d outcomes for %d points", len(outs), len(pts))
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

func TestRunCtxMatchesRunWhenUncancelled(t *testing.T) {
	pts := smallGrid()
	want := Run(pts, 1, 300)
	got, err := RunCtx(context.Background(), pts, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("outcome %d diverges: %+v vs %+v", i, got[i], want[i])
		}
	}
}
