// Command perfbench is the repository benchmark. It runs one named workload
// through the same public entry points the commands use (scenario.Build and
// Network.Run for ccr-sim, sweep.Run/RunBatched for ccr-sweep, serve.Server
// behind its HTTP handler for ccr-served, cluster.Node for a federation),
// checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sim-ring32 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured
// by spans around calls into each layer and by replaying captured
// arbitration rounds through each engine layer's public API. The lines
// before the result name the host, the toolchain and the workload's own
// metrics (sim_slots_per_s, served_miss_p50_ms, …); the same record is
// written under .bench_build/results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// resultsDir holds per-run records and span dumps, relative to the checkout
// root the benchmark runs from.
const resultsDir = ".bench_build/results"

// runLimit bounds a whole run; past it the run dumps every goroutine's stack
// and exits non-zero instead of hanging.
const runLimit = 170 * time.Second

// waitLimit bounds every single wait inside a workload (one job, one grid,
// one peer start-up).
const waitLimit = 60 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, the same five on every
// workload; what "operation" and "reference operation" mean per workload is
// recorded in perfbench/layers.json.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"ref_op_p50_ms", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. A layer the workload's path
// never calls reports 0.
var perLayer = []spec{
	{"scenario.build_ms", "ms"},
	{"network.run_ns_per_slot", "ns"},
	{"obs.events_per_slot", "events/slot"},
	{"wire.collection_ns_per_slot", "ns"},
	{"wire.distribution_ns_per_slot", "ns"},
	{"core.arbitrate_ns_per_call", "ns"},
	{"ccfpr.arbitrate_ns_per_call", "ns"},
	{"tdma.arbitrate_ns_per_call", "ns"},
	{"core.grant_ratio", "ratio"},
	{"ring.pathlinks_ns_per_call", "ns"},
	{"ring.feasible_ns_per_call", "ns"},
	{"des.ns_per_event", "ns"},
	{"sweep.point_ms", "ms"},
	{"sweep.batch_group_size", "count"},
	{"runner.busy_ratio", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.engine_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.result_fetch_ms", "ms"},
	{"serve.summarize_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.polls_per_job", "count"},
	{"journal.append_ms", "ms"},
	{"cluster.remote_point_ms", "ms"},
	{"cluster.local_point_ms", "ms"},
	{"cluster.remote_point_share", "ratio"},
	{"trace_overhead_ratio", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*outcome, error){
	"sim-ring32":      runSim,
	"sweep-grid":      runSweepGrid,
	"served-mix":      runServed,
	"cluster-scatter": runCluster,
}

// outcome is what one workload run measured.
type outcome struct {
	// setup holds each set-up repetition's wall seconds.
	setup []float64
	// work counts the work units (slots, points, jobs) the main operations
	// completed and throughput is work per second; mainWall and refWall hold
	// each operation's wall seconds.
	work       float64
	throughput float64
	mainWall   []float64
	refWall    []float64
	heapPeak   float64
	// detail are the workload's own named metrics, printed before the
	// result line.
	detail []named
	// layers are the per-layer values of a traced run.
	layers map[string]float64
}

// named is a workload-specific metric.
type named struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: sim-ring32 | sweep-grid | served-mix | cluster-scatter")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	watchdog := time.AfterFunc(runLimit, func() { stuck(fmt.Sprintf("run exceeded %v", runLimit)) })
	defer watchdog.Stop()

	e := newEnv(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	out, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rep := buildReport(e, out)
	if err := emit(e, out, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stuck fails the run with every goroutine's stack.
func stuck(why string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s; goroutine dump follows\n", why)
	_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort: the run is failing anyway
	os.Exit(3)
}

// buildReport turns an outcome into the result line of the run's mode.
func buildReport(e *env, out *outcome) report {
	att, failed := e.checks.counts()
	rep := report{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: map[string]metric{}}
	if e.traced {
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{Value: out.layers[m.name], Unit: m.unit}
		}
		return rep
	}
	values := map[string]float64{
		"setup_s":          median(out.setup),
		"throughput_per_s": out.throughput,
		"op_p50_ms":        1e3 * median(out.mainWall),
		"ref_op_p50_ms":    1e3 * median(out.refWall),
		"heap_peak_mb":     out.heapPeak / (1 << 20),
	}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return rep
}

// record is the per-run file under resultsDir.
type record struct {
	Host   fingerprint `json:"host"`
	Detail []named     `json:"detail"`
	Result report      `json:"result"`
}

// emit prints the host, the workload's own metrics and the result line, and
// writes the same record (plus the spans of a traced run) to resultsDir.
func emit(e *env, out *outcome, rep report) error {
	host := hostFingerprint(e)
	att, failed := e.checks.counts()
	detail := append(out.detail, named{"error_ratio", float64(failed) / float64(max(att, 1)), "ratio"})
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hb)
	for _, d := range detail {
		fmt.Printf("%-32s %14.6g %s\n", d.Name, d.Value, d.Unit)
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}
	stem := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", e.workload, e.seed, b2i(e.traced)))
	rb, err := json.MarshalIndent(record{Host: host, Detail: detail, Result: rep}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(rb, '\n'), 0o644); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if e.traced {
		if err := e.tr.writeFile(stem + "-spans.jsonl"); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// keep defeats dead-code elimination of replayed calls.
var keep int
