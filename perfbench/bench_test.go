package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"ccredf/internal/sweep"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShortRunMetricNames runs every workload for one second, untraced and
// traced, and checks that the result line names exactly the metrics and
// units BENCHMARK.json declares, with every operation correct.
func TestShortRunMetricNames(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"sim-ring32", "sweep-grid", "served-mix", "cluster-scatter"}) || len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v do not match the workload functions %v", names, workloadNames())
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			e := newEnv(w, 7, time.Second, traced)
			out, err := workloads[w](e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			rep := buildReport(e, out)
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json declares %d", w, traced, len(rep.Metrics), len(want))
			}
			for name, m := range rep.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: printed %s [%s], BENCHMARK.json has [%s]", w, traced, name, m.Unit, unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, m.Value)
				}
			}
		}
	}
}

// TestWrongOutputCounted feeds each workload's check one deliberately wrong
// output and shows the run counts it as a failure.
func TestWrongOutputCounted(t *testing.T) {
	local := sweep.Run(clusterSpec(3, 0).Grid()[:2], 1, 200)
	good := []byte(`{"schema":1,"snapshot":{"slots":5}}`)
	wrong := map[string]error{
		"sim summary":    checkSimSummary(bytes.Replace(good, []byte("5"), []byte("6"), 1), sha256.Sum256(good)),
		"sweep CSV":      sameCSV([]byte("a,b\n1,2\n"), []byte("a,b\n1,3\n")),
		"served result":  sameResult(sha256.Sum256([]byte("x")), []byte("y")),
		"stitched sweep": checkStitched([]byte(`{"points":[]}`), local),
	}
	for what, err := range wrong {
		c := &checker{}
		c.verify(nil)
		c.verify(err)
		e := &env{checks: c}
		rep := buildReport(e, &outcome{})
		if rep.Attempted != 2 || rep.Failed != 1 || rep.Correct {
			t.Errorf("%s: wrong output gave attempted=%d failed=%d correct=%v, want 2, 1, false", what, rep.Attempted, rep.Failed, rep.Correct)
		}
	}
	if err := checkSimSummary(good, sha256.Sum256(good)); err != nil {
		t.Errorf("sim summary check rejects a right output: %v", err)
	}
}
