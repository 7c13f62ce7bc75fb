// Package sweep runs grids of independent simulations in parallel and
// aggregates their headline metrics. Each grid point is a full network
// simulation (protocol × ring size × offered load × locality × seed); the
// points are independent, so they fan out across a worker pool of
// goroutines while each simulation itself stays single-threaded and
// deterministic. Output order is the grid order regardless of scheduling,
// so sweep results are bit-reproducible for any worker count.
package sweep

import (
	"context"
	"fmt"
	"io"
	"strings"

	"ccredf/internal/ccfpr"
	"ccredf/internal/churn"
	"ccredf/internal/core"
	"ccredf/internal/fault"
	"ccredf/internal/mode"
	"ccredf/internal/network"
	"ccredf/internal/ring"
	"ccredf/internal/rng"
	"ccredf/internal/runner"
	"ccredf/internal/sched"
	"ccredf/internal/stats"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
	"ccredf/internal/topology"
	"ccredf/internal/traffic"
)

// Point is one grid coordinate.
type Point struct {
	// Protocol is "ccr-edf", "cc-fpr" or "tdma".
	Protocol string
	// Nodes is the ring size.
	Nodes int
	// Load is the offered real-time utilisation (forced, identical across
	// protocols).
	Load float64
	// Locality names the destination pattern: "uniform", "neighbour",
	// "opposite" or "local".
	Locality string
	// Seed drives the point's randomness.
	Seed uint64
	// Rings > 1 runs the point on a bridged chain of that many rings of
	// Nodes each (cross-ring connections between neighbouring rings plus one
	// spanning the chain); 0 or 1 is the classic single ring.
	Rings int
	// Knobs are the point's optional fault, churn and operating-mode specs.
	Knobs
}

// Knobs are the optional run-time knobs of a point, each a compact spec in
// its package's syntax (DESIGN.md §17); "" leaves the knob off. They stay
// strings so Point stays comparable.
type Knobs struct {
	// Faults is a fault.ParseSpec spec, e.g. "coll=0.01,crash=3@100+50". On
	// a multi-ring point it applies to ring 0.
	Faults string
	// Churn is a churn.ParseSpec spec, e.g. "rate=50000,hold=2000". A
	// seedless spec inherits the point seed. On a multi-ring point the
	// churn runs on ring 0.
	Churn string
	// Mode is a mode.ParseSpec spec, e.g. "window=256,dmiss=0.05,bcap=64".
	// On a multi-ring point every ring runs its own controller and bcap
	// bounds the bridge queues.
	Mode string
}

// Specs are the parsed Knobs; a nil field is a knob left off.
type Specs struct {
	Faults *fault.Plan
	Churn  *churn.Spec
	Mode   *mode.Spec
}

// Parse parses every knob that is set. Errors name the knob:
// "faults: fault: coll: …".
func (k Knobs) Parse() (Specs, error) {
	var s Specs
	for _, err := range []error{
		parseKnob("faults", k.Faults, fault.ParseSpec, &s.Faults),
		parseKnob("churn", k.Churn, churn.ParseSpec, &s.Churn),
		parseKnob("mode", k.Mode, mode.ParseSpec, &s.Mode),
	} {
		if err != nil {
			return Specs{}, err
		}
	}
	return s, nil
}

func parseKnob[T any](name, spec string, parse func(string) (T, error), dst **T) error {
	if spec == "" {
		return nil
	}
	v, err := parse(spec)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	*dst = &v
	return nil
}

// String renders the coordinate compactly.
func (p Point) String() string {
	s := fmt.Sprintf("%s/N%d/U%.2f/%s/s%d", p.Protocol, p.Nodes, p.Load, p.Locality, p.Seed)
	if p.Rings > 1 {
		s += fmt.Sprintf("/R%d", p.Rings)
	}
	if p.Faults != "" {
		s += "/f[" + p.Faults + "]"
	}
	if p.Churn != "" {
		s += "/c[" + p.Churn + "]"
	}
	if p.Mode != "" {
		s += "/m[" + p.Mode + "]"
	}
	return s
}

// WithRings returns the points with the given ring count stamped on every
// coordinate (≤ 1 restores the single ring).
func WithRings(points []Point, rings int) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].Rings = rings
	}
	return out
}

// WithKnobs returns the points with the given knobs stamped on every
// coordinate (the zero Knobs clears them).
func WithKnobs(points []Point, k Knobs) []Point {
	out := append([]Point(nil), points...)
	for i := range out {
		out[i].Knobs = k
	}
	return out
}

// Outcome is the measured result at one point.
type Outcome struct {
	Point
	// Delivered counts completed messages; MissRatio is net-deadline
	// misses over (delivered+missed).
	Delivered int64
	MissRatio float64
	// P99Latency is the real-time class 99th percentile.
	P99Latency timing.Time
	// ReuseFactor is mean busy links per data slot.
	ReuseFactor float64
	// GapFraction is hand-over time over elapsed time.
	GapFraction float64
	// FaultsInjected and FaultsRecovered count injected faults and the
	// recoveries the protocol completed (equal when every fault healed).
	FaultsInjected  int64
	FaultsRecovered int64
	// RingUtil is the admitted real-time utilisation per ring (one entry on
	// a single-ring point).
	RingUtil []float64
	// CrossMissRatio is end-to-end deadline misses plus bridge expiries over
	// all cross-ring completions (always 0 on a single-ring point).
	CrossMissRatio float64
	// Admitted / Evicted / Missed count mixed-criticality admission
	// outcomes and per-level deadline misses, indexed by sched.Criticality
	// (all zero without a churn spec).
	Admitted, Evicted, Missed [sched.NumCriticalities]int64
	// ModeTransitions and ModeShedBE count operating-mode transitions and
	// best-effort messages shed in Critical mode (zero without a mode spec;
	// summed over rings on a multi-ring point).
	ModeTransitions int64
	ModeShedBE      int64
	// BridgeDropped and BridgeOverflowed count bridge-queue backpressure
	// drops and safety-cap overflows (multi-ring points only).
	BridgeDropped    int64
	BridgeOverflowed int64
	// Err records a failed point (nil on success).
	Err error
}

// Grid enumerates the cartesian product in deterministic order.
func Grid(protocols []string, nodes []int, loads []float64, localities []string, seeds []uint64) []Point {
	var pts []Point
	for _, proto := range protocols {
		for _, n := range nodes {
			for _, u := range loads {
				for _, loc := range localities {
					for _, s := range seeds {
						pts = append(pts, Point{Protocol: proto, Nodes: n, Load: u, Locality: loc, Seed: s})
					}
				}
			}
		}
	}
	return pts
}

func picker(name string) traffic.DestPicker {
	switch name {
	case "neighbour":
		return traffic.NeighbourDest
	case "opposite":
		return traffic.OppositeDest
	case "local":
		return traffic.LocalDest(0.3)
	default:
		return traffic.UniformDest
	}
}

func protocol(name string, nodes int) (core.Protocol, error) {
	switch name {
	case "ccr-edf":
		return core.NewArbiter(nodes, sched.MapExact, true)
	case "cc-fpr":
		return ccfpr.NewArbiter(nodes, true)
	case "tdma":
		return tdma.NewArbiter(nodes, true)
	default:
		return nil, fmt.Errorf("sweep: unknown protocol %q", name)
	}
}

// chunkSlots bounds how long a running point can ignore a cancelled
// context: the simulation advances in chunks of this many slot periods and
// polls ctx between chunks.
const chunkSlots = 512

// runPoint executes one simulation, polling ctx between chunks of slots.
func runPoint(ctx context.Context, pt Point, horizonSlots int64) Outcome {
	if pt.Rings > 1 {
		return runMultiPoint(ctx, pt, horizonSlots)
	}
	out := Outcome{Point: pt}
	net, err := newPoint(pt)
	if err == nil {
		err = runChunks(ctx, horizonSlots, net.RunSlots)
	}
	if err != nil {
		out.Err = err
		return out
	}
	collect(net, &out)
	return out
}

// newPoint builds a single-ring point's network, loaded and ready to run.
func newPoint(pt Point) (*network.Network, error) {
	cfg, k, err := pointConfig(pt)
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	return net, loadPoint(net, pt, k)
}

// pointConfig parses a single-ring point's knobs and returns its engine
// configuration with them.
func pointConfig(pt Point) (network.Config, Specs, error) {
	k, err := pt.Knobs.Parse()
	if err != nil {
		return network.Config{}, Specs{}, err
	}
	cfg, err := ringConfig(pt, 0, k)
	return cfg, k, err
}

// ringConfig is the engine configuration of ring ri of pt (0 on a single
// ring): ring ri is seeded pt.Seed+ri, the fault plan applies to ring 0 and
// the mode spec to every ring.
func ringConfig(pt Point, ri int, k Specs) (network.Config, error) {
	proto, err := protocol(pt.Protocol, pt.Nodes)
	if err != nil {
		return network.Config{}, err
	}
	cfg := network.Config{Params: timing.DefaultParams(pt.Nodes), Protocol: proto, Seed: pt.Seed + uint64(ri), Mode: k.Mode}
	if ri == 0 {
		cfg.Faults = k.Faults
	}
	return cfg, nil
}

// loadPoint puts a single-ring point's workload on net: the forced
// real-time connection set, then churn if the point has any.
func loadPoint(net *network.Network, pt Point, k Specs) error {
	if err := forceLoad(net, pt, 0); err != nil {
		return err
	}
	return attachChurn(net, k.Churn, pt.Seed)
}

// forceLoad forces pt's offered real-time load onto ring ri, drawing the
// connection set from seed pt.Seed+ri.
func forceLoad(net *network.Network, pt Point, ri int) error {
	src := rng.New(pt.Seed + uint64(ri))
	for _, c := range traffic.UniformRTSet(pt.Nodes, pt.Nodes, pt.Load, net.Params(), picker(pt.Locality), src) {
		if _, err := net.ForceConnection(c); err != nil {
			return err
		}
	}
	return nil
}

// attachChurn starts the churn workload spec (nil: none) on net. A seedless
// spec inherits seed so every point stays deterministic.
func attachChurn(net *network.Network, spec *churn.Spec, seed uint64) error {
	if spec == nil {
		return nil
	}
	s := *spec
	if s.Seed == 0 {
		s.Seed = seed
	}
	_, err := churn.Attach(net, s)
	return err
}

// runChunks advances a simulation horizonSlots slots through run, in
// chunks of chunkSlots, and stops early with ctx's error once it is done.
func runChunks(ctx context.Context, horizonSlots int64, run func(int64)) error {
	for done := int64(0); done < horizonSlots; {
		if err := ctx.Err(); err != nil {
			return err
		}
		step := min(int64(chunkSlots), horizonSlots-done)
		run(step)
		done += step
	}
	return nil
}

// collect reads one finished single-ring simulation's headline metrics into
// the outcome. Shared between the sequential and the batched paths so the
// two emit identical numbers by construction.
func collect(net *network.Network, out *Outcome) {
	m := net.Metrics()
	out.Delivered = m.MessagesDelivered.Value()
	misses := m.NetDeadlineMisses.Value()
	out.MissRatio = stats.Ratio(misses, out.Delivered+misses)
	out.P99Latency = m.Latency[sched.ClassRealTime].Quantile(0.99)
	out.ReuseFactor = m.SpatialReuseFactor()
	out.GapFraction = float64(m.GapTime) / float64(net.Now())
	out.FaultsInjected = m.FaultsInjected.Value()
	out.FaultsRecovered = m.FaultsRecovered.Value()
	out.RingUtil = []float64{net.Admission().Utilisation()}
	collectCrit(m, out)
	collectMode(net, out)
}

// collectMode folds one ring's operating-mode counters into the outcome.
func collectMode(net *network.Network, out *Outcome) {
	if net.ModeController() == nil {
		return
	}
	out.ModeTransitions += net.ModeController().Transitions()
	out.ModeShedBE += net.Metrics().ModeShedBE.Value()
}

// collectCrit folds one ring's mixed-criticality counters into the outcome.
func collectCrit(m *network.Metrics, out *Outcome) {
	for l := 0; l < sched.NumCriticalities; l++ {
		out.Admitted[l] += m.CritAdmitted[l].Value()
		out.Evicted[l] += m.CritEvicted[l].Value()
		out.Missed[l] += m.CritMisses[l].Value()
	}
}

// runMultiPoint executes one bridged-chain simulation: pt.Rings rings of
// pt.Nodes nodes, cross-ring connections between neighbouring rings plus one
// spanning the chain, and the point's forced intra-ring load on every ring.
func runMultiPoint(ctx context.Context, pt Point, horizonSlots int64) Outcome {
	out := Outcome{Point: pt}
	m, cross, err := newMultiPoint(pt)
	if err == nil {
		err = runChunks(ctx, horizonSlots, m.RunSlots)
	}
	if err != nil {
		out.Err = err
		return out
	}
	var misses int64
	for ri := 0; ri < pt.Rings; ri++ {
		rm := m.Ring(ri).Metrics()
		out.Delivered += rm.MessagesDelivered.Value()
		misses += rm.NetDeadlineMisses.Value()
		if p99 := rm.Latency[sched.ClassRealTime].Quantile(0.99); p99 > out.P99Latency {
			out.P99Latency = p99
		}
		out.ReuseFactor += rm.SpatialReuseFactor() / float64(pt.Rings)
		out.FaultsInjected += rm.FaultsInjected.Value()
		out.FaultsRecovered += rm.FaultsRecovered.Value()
		out.RingUtil = append(out.RingUtil, m.Ring(ri).Admission().Utilisation())
		collectCrit(rm, &out)
		collectMode(m.Ring(ri), &out)
	}
	out.BridgeDropped, out.BridgeOverflowed, _ = m.BridgeTotals()
	out.MissRatio = stats.Ratio(misses, out.Delivered+misses)
	out.GapFraction = float64(m.Ring(0).Metrics().GapTime) / float64(m.Now())
	var crossBad, crossTotal int64
	for _, cc := range cross {
		st := cc.Stats()
		crossBad += st.Misses + st.Expired
		crossTotal += st.Delivered + st.Misses + st.Expired
	}
	out.CrossMissRatio = stats.Ratio(crossBad, crossTotal)
	return out
}

// newMultiPoint builds a multi-ring point's fabric, loaded and ready to run,
// with the cross connections it managed to open.
func newMultiPoint(pt Point) (*network.MultiNet, []*network.CrossConn, error) {
	k, err := pt.Knobs.Parse()
	if err != nil {
		return nil, nil, err
	}
	spec := topology.Spec{}
	for i := 0; i < pt.Rings; i++ {
		spec.Rings = append(spec.Rings, pt.Nodes)
		if i > 0 {
			spec.Bridges = append(spec.Bridges, topology.Bridge{
				RingA: i - 1, NodeA: pt.Nodes / 2, RingB: i, NodeB: 0,
			})
		}
	}
	topo, err := topology.New(spec)
	if err != nil {
		return nil, nil, err
	}
	cfgs := make([]network.Config, pt.Rings)
	for i := range cfgs {
		if cfgs[i], err = ringConfig(pt, i, k); err != nil {
			return nil, nil, err
		}
	}
	mc := network.MultiConfig{Topo: topo, RingConfigs: cfgs}
	if k.Mode != nil {
		mc.BridgeCap = k.Mode.BridgeCap
	}
	m, err := network.NewMulti(mc)
	if err != nil {
		return nil, nil, err
	}
	// Cross connections first, through end-to-end admission, so they hold
	// their reservations before the forced intra-ring load floods the rings.
	p := m.Ring(0).Params()
	var cross []*network.CrossConn
	openCross := func(req network.CrossRequest) {
		if cc, err := m.OpenCross(req); err == nil {
			cross = append(cross, cc)
		}
	}
	for ri := 0; ri+1 < pt.Rings; ri++ {
		openCross(network.CrossRequest{
			SrcRing: ri, Src: 1, DstRing: ri + 1, Dests: ring.Node(1),
			Period: 64 * p.SlotTime(), Slots: 1, Deadline: 64 * p.SlotTime(),
		})
	}
	if pt.Rings > 2 {
		openCross(network.CrossRequest{
			SrcRing: 0, Src: 2, DstRing: pt.Rings - 1, Dests: ring.Node(2),
			Period: 128 * p.SlotTime(), Slots: 1, Deadline: 128 * p.SlotTime(),
		})
	}
	for ri := 0; ri < pt.Rings; ri++ {
		if err := forceLoad(m.Ring(ri), pt, ri); err != nil {
			return nil, nil, err
		}
	}
	return m, cross, attachChurn(m.Ring(0), k.Churn, pt.Seed)
}

// Run executes every point on a pool of workers (≤ 0 means GOMAXPROCS) and
// returns outcomes in grid order.
func Run(points []Point, workers int, horizonSlots int64) []Outcome {
	outcomes, _ := RunCtx(context.Background(), points, workers, horizonSlots)
	return outcomes
}

// RunCtx is Run with cooperative cancellation: once ctx is cancelled no new
// point starts and running points stop at the next slot chunk. Outcomes stay
// in grid order; points that never ran (or were interrupted) carry the
// context error in Err. The returned error is ctx.Err().
func RunCtx(ctx context.Context, points []Point, workers int, horizonSlots int64) ([]Outcome, error) {
	outcomes, err := runner.MapCtx(ctx, len(points), workers, func(i int) Outcome {
		return runPoint(ctx, points[i], horizonSlots)
	})
	if err != nil {
		// Undispatched points hold the zero Outcome; stamp their coordinate
		// and the cancellation error so callers see exactly what was skipped.
		for i := range outcomes {
			if outcomes[i].Point != points[i] {
				outcomes[i] = Outcome{Point: points[i], Err: err}
			}
		}
	}
	return outcomes, err
}

// CSVHeader is the pinned column order of WriteCSV. Remote (ccr-sweep
// -remote) and local runs must produce byte-identical rows under it; a
// round-trip test in serve enforces that, so extend it deliberately.
const CSVHeader = "protocol,nodes,load,locality,seed,delivered,miss_ratio,p99_latency_us,reuse_factor,gap_fraction,faults_injected,faults_recovered,ring_util,cross_miss_ratio,admitted_hard,admitted_firm,admitted_be,evicted_hard,evicted_firm,evicted_be,missed_hard,missed_firm,missed_be,mode_transitions,mode_shed_be,bridge_dropped,bridge_overflowed,error"

// ringUtilCSV joins the per-ring utilisations with ';' so they stay one CSV
// column.
func ringUtilCSV(utils []float64) string {
	parts := make([]string, len(utils))
	for i, u := range utils {
		parts[i] = fmt.Sprintf("%.4f", u)
	}
	return strings.Join(parts, ";")
}

// WriteCSV emits the outcomes as CSV with a header row.
func WriteCSV(w io.Writer, outcomes []Outcome) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for _, o := range outcomes {
		errStr := ""
		if o.Err != nil {
			errStr = o.Err.Error()
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%.4f,%s,%d,%d,%.6f,%.3f,%.4f,%.6f,%d,%d,%s,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%s\n",
			o.Protocol, o.Nodes, o.Load, o.Locality, o.Seed,
			o.Delivered, o.MissRatio, o.P99Latency.Micros(), o.ReuseFactor, o.GapFraction,
			o.FaultsInjected, o.FaultsRecovered, ringUtilCSV(o.RingUtil), o.CrossMissRatio,
			o.Admitted[sched.CritHard], o.Admitted[sched.CritFirm], o.Admitted[sched.CritBestEffort],
			o.Evicted[sched.CritHard], o.Evicted[sched.CritFirm], o.Evicted[sched.CritBestEffort],
			o.Missed[sched.CritHard], o.Missed[sched.CritFirm], o.Missed[sched.CritBestEffort],
			o.ModeTransitions, o.ModeShedBE, o.BridgeDropped, o.BridgeOverflowed, errStr); err != nil {
			return err
		}
	}
	return nil
}

// Table renders the outcomes as an aligned text table.
func Table(outcomes []Outcome) *stats.Table {
	t := stats.NewTable("Sweep results",
		"point", "delivered", "miss ratio", "p99", "reuse", "gap frac")
	for _, o := range outcomes {
		if o.Err != nil {
			t.AddRow(o.Point.String(), "-", "-", "-", "-", o.Err.Error())
			continue
		}
		t.AddRow(o.Point.String(), o.Delivered, o.MissRatio, o.P99Latency.String(), o.ReuseFactor, o.GapFraction)
	}
	return t
}
