// ccr-sim runs a single CCR-EDF (or CC-FPR / TDMA) scenario and prints a
// summary: deliveries, deadline behaviour, spatial reuse, hand-over
// overhead. With -json the summary is the same machine-readable
// serve.Summary object the ccr-served result API returns.
//
// Exit codes: 0 clean run, 1 runtime error, 2 usage, 3 at least one
// real-time deadline missed (so scripts can gate on deadline behaviour).
//
// Example:
//
//	ccr-sim -nodes 8 -rt 0.7 -be 0.2 -slots 20000
//	ccr-sim -protocol cc-fpr -rt 0.9 -dest opposite
//	ccr-sim -config scenario.json -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ccredf"
	"ccredf/internal/analysis"
	"ccredf/internal/serve"
	"ccredf/internal/sweep"
	"ccredf/scenario"
)

// exitMissedDeadline is returned when the run missed any real-time deadline.
const exitMissedDeadline = 3

// showHist and jsonOut are set from flags and read by summarise.
var showHist, jsonOut *bool

func main() {
	var (
		config   = flag.String("config", "", "JSON scenario file (overrides the workload flags)")
		nodes    = flag.Int("nodes", 8, "ring size (2-64)")
		protocol = flag.String("protocol", "ccr-edf", "ccr-edf | cc-fpr")
		rtLoad   = flag.Float64("rt", 0.6, "admitted real-time utilisation target")
		beLoad   = flag.Float64("be", 0.2, "best-effort offered load (fraction of slot rate)")
		dest     = flag.String("dest", "uniform", "destination pattern: uniform | neighbour | opposite | local | hotspot")
		slots    = flag.Int64("slots", 20000, "horizon in worst-case slot periods")
		exact    = flag.Bool("exact", false, "exact-EDF arbitration instead of the 5-bit map")
		noReuse  = flag.Bool("no-reuse", false, "disable spatial reuse (analysis mode)")
		loss     = flag.Float64("loss", 0, "per-fragment loss probability")
		reliable = flag.Bool("reliable", false, "enable the reliable-transmission service")
		seed     = flag.Uint64("seed", 1, "random seed")
		nodeLat  = flag.Bool("node-latency", false, "print per-source-node completion-latency percentiles")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. coll=0.01,dist=0.01,ho=0.005,crash=3@100+50,seed=9")
		churn    = flag.String("churn", "", "connection-churn spec, e.g. rate=50000,hold=2000,hard=0.2,firm=0.4,seed=9")
		modeArg  = flag.String("mode", "", "operating-mode spec, e.g. window=256,dmiss=0.05,cmiss=0.25,cool=2,bcap=64")
	)
	showHist = flag.Bool("hist", false, "render latency histograms as ASCII bars")
	jsonOut = flag.Bool("json", false, "print a machine-readable JSON snapshot instead of text")
	flag.Parse()

	knobs, err := sweep.Knobs{Faults: *faults, Churn: *churn, Mode: *modeArg}.Parse()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sim:", err)
		os.Exit(2)
	}

	if *config != "" {
		runConfig(*config, *nodeLat, knobs)
		return
	}

	cfg := ccredf.DefaultConfig(*nodes)
	cfg.ExactEDF = *exact
	cfg.DisableSpatialReuse = *noReuse
	cfg.LossProb = *loss
	cfg.Reliable = *reliable
	cfg.Seed = *seed
	cfg.Faults = knobs.Faults
	cfg.Mode = knobs.Mode
	switch *protocol {
	case "ccr-edf":
		cfg.Protocol = ccredf.CCREDF
	case "cc-fpr":
		cfg.Protocol = ccredf.CCFPR
	case "tdma":
		cfg.Protocol = ccredf.TDMA
	default:
		fmt.Fprintf(os.Stderr, "ccr-sim: unknown protocol %q\n", *protocol)
		os.Exit(2)
	}

	var pick ccredf.DestPicker
	switch *dest {
	case "uniform":
		pick = ccredf.UniformDest
	case "neighbour":
		pick = ccredf.NeighbourDest
	case "opposite":
		pick = ccredf.OppositeDest
	case "local":
		pick = ccredf.LocalDest(0.3)
	case "hotspot":
		pick = ccredf.HotspotDest(0, 0.7)
	default:
		fmt.Fprintf(os.Stderr, "ccr-sim: unknown destination pattern %q\n", *dest)
		os.Exit(2)
	}

	net, err := ccredf.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sim:", err)
		os.Exit(1)
	}
	probe := attachProbe(net, *nodeLat)
	p := net.Params()
	rnd := ccredf.NewRand(*seed)

	// Admitted periodic real-time connections up to the target.
	opened := 0
	for attempts := 0; attempts < 256 && net.Admission().Utilisation() < *rtLoad; attempts++ {
		from := rnd.Intn(*nodes)
		to := pick(rnd, from, *nodes)
		period := ccredf.Time(5+rnd.Intn(40)) * p.SlotTime()
		c := ccredf.Connection{Src: from, Dests: ccredf.Node(to), Period: period, Slots: 1 + rnd.Intn(2)}
		if ccredf.Time(c.Slots)*p.SlotTime() > period {
			continue
		}
		if _, err := net.OpenConnection(c); err == nil {
			opened++
		}
	}

	// Best-effort Poisson background.
	if *beLoad > 0 {
		mean := ccredf.Time(float64(*nodes) / *beLoad) * p.SlotTime()
		for i := 0; i < *nodes; i++ {
			net.AttachPoisson(ccredf.Poisson{
				Node: i, Class: ccredf.ClassBestEffort,
				MeanInterarrival: mean, Slots: 1,
				RelDeadline: 500 * p.SlotTime(), Dest: pick,
			}, *seed+uint64(i)+1)
		}
	}

	// Connection churn: live mixed-criticality arrivals and departures.
	if knobs.Churn != nil {
		sp := *knobs.Churn
		if sp.Seed == 0 {
			sp.Seed = *seed + 300
		}
		if _, err := net.AttachChurn(sp); err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sim:", err)
			os.Exit(1)
		}
	}

	net.RunSlots(*slots)
	summarise(net, "", opened, *exact, *noReuse, *loss)
	printProbe(probe)
	exitOnMiss(net)
}

// exitOnMiss terminates with a distinct non-zero status when any real-time
// deadline was missed, so scripts can gate on it.
func exitOnMiss(net *ccredf.Network) {
	m := net.Metrics()
	if m.NetDeadlineMisses.Value()+m.UserDeadlineMisses.Value()+m.LateDrops.Value() > 0 {
		os.Exit(exitMissedDeadline)
	}
}

// attachProbe subscribes the per-node latency observer when requested.
func attachProbe(net *ccredf.Network, enabled bool) *ccredf.LatencyProbe {
	if !enabled {
		return nil
	}
	probe := ccredf.NewLatencyProbe(net.Params().Nodes)
	net.Attach(probe)
	return probe
}

// printProbe renders the per-node percentile table after the summary.
func printProbe(probe *ccredf.LatencyProbe) {
	if probe == nil {
		return
	}
	fmt.Println()
	fmt.Print(probe.Table())
}

// runConfig executes a declarative JSON scenario. A -faults spec overrides
// the scenario's own faults stanza, a -churn spec its churn stanza, and a
// -mode spec its mode stanza.
func runConfig(path string, nodeLat bool, knobs sweep.Specs) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sim:", err)
		os.Exit(1)
	}
	defer f.Close()
	s, err := scenario.Load(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sim:", err)
		os.Exit(1)
	}
	if knobs != (sweep.Specs{}) {
		if knobs.Faults != nil {
			s.Faults = knobs.Faults
		}
		if knobs.Churn != nil {
			s.Churn = knobs.Churn
		}
		if knobs.Mode != nil {
			s.Mode = knobs.Mode
		}
		if err := s.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sim:", err)
			os.Exit(2)
		}
	}
	key, err := serve.ScenarioKey(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sim:", err)
		os.Exit(1)
	}
	res, err := s.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccr-sim:", err)
		os.Exit(1)
	}
	if res.Multi != nil {
		runMulti(res, key, nodeLat)
		return
	}
	probe := attachProbe(res.Net, nodeLat)
	res.Net.Run(res.Horizon)
	summarise(res.Net, key, len(res.Connections), s.ExactEDF, s.DisableSpatialReuse, s.LossProb)
	printProbe(probe)
	if jsonOut == nil || !*jsonOut {
		for _, c := range res.Connections {
			if cs, ok := res.Net.ConnStats(c.ID); ok {
				fmt.Printf("conn %-3d %d→%v      delivered=%d misses net=%d user=%d  %s\n",
					c.ID, c.Src, c.Dests, cs.Delivered, cs.NetMisses, cs.UserMisses, cs.Latency.Summary())
			}
		}
	}
	exitOnMiss(res.Net)
}

// runMulti executes a multi-ring scenario build: run to the horizon, report
// per ring and per cross-ring connection, and gate the exit code on any ring
// or end-to-end deadline miss.
func runMulti(res *scenario.Result, key string, nodeLat bool) {
	probe := attachProbe(res.Multi.RingNetwork(0), nodeLat)
	res.Multi.Run(res.Horizon)
	sum := serve.SummarizeMulti(res.Multi, key)
	if jsonOut != nil && *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sim:", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("topology            %d rings, %d bridges\n",
			res.Multi.Rings(), len(res.Multi.Config().Topology.Bridges))
		fmt.Printf("simulated           %v\n", res.Multi.Now())
		for _, r := range sum.Rings {
			fmt.Printf("ring %-2d             N=%d slots=%d delivered=%d misses net=%d user=%d lateDrops=%d\n",
				r.Ring, r.Snapshot.Nodes, r.Snapshot.Slots, r.Snapshot.MessagesDelivered,
				r.Snapshot.NetMisses, r.Snapshot.UserMisses, r.Snapshot.LateDrops)
		}
		for _, c := range sum.Cross {
			fmt.Printf("cross %-3d %d:%d→%d:%v  route=%v released=%d delivered=%d expired=%d misses=%d p99=%.1fµs max=%.1fµs bound=%.1fµs\n",
				c.ID, c.SrcRing, c.Src, c.DstRing, c.Dests, c.Route,
				c.Released, c.Delivered, c.Expired, c.Misses,
				c.LatencyP99Us, c.LatencyMaxUs, c.BoundUs)
		}
		if sum.Snapshot.FaultsInjected > 0 {
			fmt.Printf("faults              injected=%d detected=%d recovered=%d crashes=%d\n",
				sum.Snapshot.FaultsInjected, sum.Snapshot.FaultsDetected,
				sum.Snapshot.FaultsRecovered, sum.Snapshot.NodeCrashes)
		}
		if sum.Snapshot.Mode != "" {
			fmt.Printf("operating mode      %s (transitions=%d degraded=%d critical=%d gated=%d shed_be=%d)\n",
				sum.Snapshot.Mode, sum.Snapshot.ModeTransitions,
				sum.Snapshot.ModeDegradedEntries, sum.Snapshot.ModeCriticalEntries,
				sum.Snapshot.ModeGated, sum.Snapshot.ModeShedBE)
		}
		if sum.Snapshot.BridgeDropped+sum.Snapshot.BridgeOverflowed > 0 || sum.Snapshot.BridgeMaxQueue > 0 {
			fmt.Printf("bridge backpressure dropped=%d overflowed=%d max_queue=%d\n",
				sum.Snapshot.BridgeDropped, sum.Snapshot.BridgeOverflowed, sum.Snapshot.BridgeMaxQueue)
		}
	}
	printProbe(probe)
	missed := sum.DeadlinesMissed()
	for _, c := range sum.Cross {
		if c.Misses+c.Expired > 0 {
			missed = true
		}
	}
	if missed {
		os.Exit(exitMissedDeadline)
	}
}

// summarise prints the standard end-of-run report; with -json it emits the
// shared serve.Summary object instead (the same shape ccr-served returns),
// indented for reading. key is the scenario's content hash when the run
// came from a config file.
func summarise(net *ccredf.Network, key string, opened int, exact, noReuse bool, loss float64) {
	if jsonOut != nil && *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(serve.Summarize(net, key)); err != nil {
			fmt.Fprintln(os.Stderr, "ccr-sim:", err)
			os.Exit(1)
		}
		return
	}
	cfg := net.Config()
	p := net.Params()
	nodes := p.Nodes
	m := net.Metrics()
	umax, latency, gbytes := ccredf.Bounds(p)
	fmt.Printf("protocol            %s (exact=%v reuse=%v)\n", cfg.Protocol, exact, !noReuse)
	fmt.Printf("ring                N=%d, slot=%v, U_max=%.4f, t_latency=%v, guaranteed %.1f MB/s\n",
		nodes, p.SlotTime(), umax, latency, gbytes/1e6)
	fmt.Printf("admitted RT conns   %d (U=%.4f)\n", opened, net.Admission().Utilisation())
	fmt.Printf("simulated           %d slots, %v\n", m.Slots.Value(), net.Now())
	fmt.Printf("delivered           %d messages (%d fragments, %.1f MB)\n",
		m.MessagesDelivered.Value(), m.FragmentsDelivered.Value(), float64(m.BytesDelivered.Value())/1e6)
	fmt.Printf("deadline misses     net=%d user=%d lateDrops=%d\n",
		m.NetDeadlineMisses.Value(), m.UserDeadlineMisses.Value(), m.LateDrops.Value())
	fmt.Printf("spatial reuse       %.2f busy links per data slot; %d/%d slots carried data\n",
		m.SpatialReuseFactor(), m.SlotsWithData.Value(), m.Slots.Value())
	fmt.Printf("hand-over overhead  total gap %v (%.2f%% of time)\n",
		m.GapTime, 100*float64(m.GapTime)/float64(net.Now()))
	fmt.Printf("effective RT util   %.4f (analytic worst case available: %.4f)\n",
		analysis.EffectiveUtilisation(m.SlotsWithData.Value(), net.Now(), p), umax)
	if loss > 0 {
		fmt.Printf("fault injection     dropped=%d retransmits=%d lost=%d\n",
			m.FragmentsDropped.Value(), m.Retransmits.Value(), m.MessagesLost.Value())
	}
	if m.FaultsInjected.Value() > 0 {
		fmt.Printf("faults              injected=%d detected=%d recovered=%d crashes=%d\n",
			m.FaultsInjected.Value(), m.FaultsDetected.Value(),
			m.FaultsRecovered.Value(), m.NodeCrashes.Value())
	}
	if mc := net.ModeController(); mc != nil {
		fmt.Printf("operating mode      %s (transitions=%d degraded=%d critical=%d gated=%d shed_be=%d)\n",
			mc.Mode(), mc.Transitions(),
			mc.Entries(ccredf.ModeDegraded), mc.Entries(ccredf.ModeCritical),
			m.ModeGated.Value(), m.ModeShedBE.Value())
	}
	var churned int64
	for _, l := range []ccredf.Criticality{ccredf.CritHard, ccredf.CritFirm, ccredf.CritBestEffort} {
		churned += m.CritAdmitted[l].Value() + m.CritRejected[l].Value()
	}
	if churned > 0 {
		for _, l := range []ccredf.Criticality{ccredf.CritHard, ccredf.CritFirm, ccredf.CritBestEffort} {
			fmt.Printf("admission[%-11s] admitted=%d rejected=%d evicted=%d missed=%d\n",
				l, m.CritAdmitted[l].Value(), m.CritRejected[l].Value(),
				m.CritEvicted[l].Value(), m.CritMisses[l].Value())
		}
	}
	for _, cl := range []struct {
		name  string
		class ccredf.Class
	}{{"rt", ccredf.ClassRealTime}, {"be", ccredf.ClassBestEffort}} {
		h := m.Latency[cl.class]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("latency[%s]          %s\n", cl.name, h.Summary())
		if showHist != nil && *showHist {
			if err := h.Render(os.Stdout, 50); err != nil {
				fmt.Fprintln(os.Stderr, "ccr-sim:", err)
			}
		}
	}
	if m.WireErrors.Value() > 0 {
		fmt.Fprintf(os.Stderr, "ccr-sim: %d wire codec errors!\n", m.WireErrors.Value())
		os.Exit(1)
	}
}
