// ccr-sweep runs a grid of independent simulations in parallel (one
// goroutine per worker, one full network simulation per grid point) and
// prints — or writes to CSV — the protocol × size × load × locality
// landscape of miss ratios, tail latencies and spatial reuse.
//
// Example:
//
//	ccr-sweep -protocols ccr-edf,cc-fpr,tdma -loads 0.3,0.6,0.9 -csv out.csv
//
// With -remote URL the grid is not run locally: the spec is submitted to a
// ccr-served daemon through the retrying client (bounded backoff honouring
// Retry-After), so repeated sweeps hit the daemon's result cache and a
// sweep survives transient 429/503 responses. -remote also accepts a
// comma-separated list of cluster peer URLs: the client fails over between
// them, and because jobs are content-addressed a resubmission after a peer
// death re-runs only the grid points that were lost — every surviving
// point is a byte-identical cache hit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ccredf/internal/serve"
	"ccredf/internal/serve/client"
	"ccredf/internal/sweep"
)

func main() {
	var (
		protocols  = flag.String("protocols", "ccr-edf,cc-fpr", "comma-separated protocols")
		nodes      = flag.String("nodes", "8", "comma-separated ring sizes")
		loads      = flag.String("loads", "0.3,0.6,0.9", "comma-separated offered RT loads")
		localities = flag.String("localities", "uniform", "comma-separated destination patterns")
		seeds      = flag.String("seeds", "1", "comma-separated seeds")
		slots      = flag.Int64("slots", 5000, "horizon per point in slot periods")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		batch      = flag.Int("batch", sweep.DefaultBatch, "fuse up to this many same-shape points per batched engine pass (1 disables fusion; local runs only)")
		csvPath    = flag.String("csv", "", "also write results to this CSV file")
		faults     = flag.String("faults", "", "fault-injection spec applied to every point, e.g. coll=0.01,crash=3@100+50")
		churnFlag  = flag.String("churn", "", "connection-churn spec applied to every point, e.g. rate=50000,hold=2000 (seedless specs inherit each point's seed)")
		modeFlag   = flag.String("mode", "", "operating-mode spec applied to every point, e.g. window=256,dmiss=0.05,bcap=64")
		rings      = flag.Int("rings", 1, "rings per point: >1 runs each point on a bridged chain with cross-ring traffic")
		remote     = flag.String("remote", "", "run the sweep on a ccr-served daemon (or comma-separated cluster peers) instead of locally")
		remoteWait = flag.Duration("remote-timeout", 10*time.Minute, "server-side job timeout for -remote sweeps")
	)
	flag.Parse()

	parseInts := func(s string) ([]int, error) {
		var out []int
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	parseFloats := func(s string) ([]float64, error) {
		var out []float64
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	parseSeeds := func(s string) ([]uint64, error) {
		var out []uint64
		for _, f := range strings.Split(s, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	ns, err := parseInts(*nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sweep: -nodes:", err)
		os.Exit(2)
	}
	us, err := parseFloats(*loads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sweep: -loads:", err)
		os.Exit(2)
	}
	ss, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sweep: -seeds:", err)
		os.Exit(2)
	}

	knobs := sweep.Knobs{Faults: *faults, Churn: *churnFlag, Mode: *modeFlag}
	if _, err := knobs.Parse(); err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sweep:", err)
		os.Exit(2)
	}

	var outcomes []sweep.Outcome
	if *remote != "" {
		spec := &serve.SweepSpec{
			Protocols:    strings.Split(*protocols, ","),
			Nodes:        ns,
			Loads:        us,
			Localities:   strings.Split(*localities, ","),
			Seeds:        ss,
			HorizonSlots: *slots,
			Workers:      *workers,
			Faults:       *faults,
			Rings:        *rings,
			Churn:        *churnFlag,
			Mode:         *modeFlag,
		}
		var err error
		outcomes, err = runRemote(*remote, spec, *remoteWait, knobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sweep: remote:", err)
			os.Exit(1)
		}
	} else {
		grid := sweep.WithKnobs(sweep.Grid(strings.Split(*protocols, ","), ns, us, strings.Split(*localities, ","), ss), knobs)
		if *rings > 1 {
			grid = sweep.WithRings(grid, *rings)
		}
		fmt.Printf("sweeping %d points on %d workers (%d slots each)…\n", len(grid), *workers, *slots)
		if *batch > 1 {
			outcomes = sweep.RunBatched(grid, *workers, *batch, *slots)
		} else {
			outcomes = sweep.Run(grid, *workers, *slots)
		}
	}

	failed := 0
	for _, o := range outcomes {
		if o.Err != nil {
			failed++
		}
	}
	fmt.Println(sweep.Table(outcomes))
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sweep:", err)
			os.Exit(1)
		}
		if err := sweep.WriteCSV(f, outcomes); err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sweep:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ccr-sweep: %d point(s) failed\n", failed)
		os.Exit(1)
	}
}

// runRemote submits the sweep spec to a ccr-served daemon and converts the
// wire outcomes back into sweep.Outcome, so the table/CSV output below is
// identical whether the grid ran locally or remotely.
func runRemote(base string, spec *serve.SweepSpec, timeout time.Duration, knobs sweep.Knobs) ([]sweep.Outcome, error) {
	endpoints := strings.Split(base, ",")
	c := client.NewMulti(endpoints, client.Options{})
	ctx := context.Background()

	st, body, err := c.RunSweep(ctx, spec, timeout)
	if err != nil {
		return nil, err
	}
	var res serve.SweepResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("decode sweep result: %w", err)
	}
	where := strings.TrimSpace(endpoints[0])
	if len(endpoints) > 1 {
		where = fmt.Sprintf("cluster of %d", len(endpoints))
	}
	if st.Cached {
		fmt.Printf("sweep %s: %d points served from %s cache\n", st.ID, len(res.Points), where)
	} else {
		fmt.Printf("sweep %s: %d points run on %s (%.0f ms)\n", st.ID, len(res.Points), where, st.WallMS)
	}

	out := make([]sweep.Outcome, 0, len(res.Points))
	for _, p := range res.Points {
		out = append(out, p.Outcome(knobs))
	}
	return out, nil
}
