package serve

import (
	"errors"
	"fmt"
	"runtime"

	"ccredf/internal/sched"
	"ccredf/internal/sweep"
	"ccredf/internal/timing"
)

// SweepSpec is the declarative body of POST /v1/sweeps: a parameter grid
// fanned out over internal/sweep. The cartesian product of the axes is
// enumerated in deterministic order, so a spec's result bytes are
// reproducible and cacheable exactly like a single scenario's.
type SweepSpec struct {
	// Protocols, Nodes, Loads, Localities and Seeds are the grid axes
	// (defaults: ["ccr-edf"], [8], [0.5], ["uniform"], [1]).
	Protocols  []string  `json:"protocols,omitempty"`
	Nodes      []int     `json:"nodes,omitempty"`
	Loads      []float64 `json:"loads,omitempty"`
	Localities []string  `json:"localities,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
	// HorizonSlots is the per-point run length (required).
	HorizonSlots int64 `json:"horizon_slots"`
	// Workers bounds the sweep's internal fan-out (0 = GOMAXPROCS). The grid
	// still occupies a single service worker slot; Workers only controls
	// parallelism within it.
	Workers int `json:"workers,omitempty"`
	// Faults, Churn and Mode are the optional knobs (sweep.Knobs) applied
	// identically to every grid point; they stay separate fields because
	// their names and order are part of the cache key's preimage.
	//
	// Faults is a fault-injection spec (fault.ParseSpec syntax).
	Faults string `json:"faults,omitempty"`
	// Rings > 1 runs every point on a bridged chain of that many rings of
	// Nodes each (sweep.Point.Rings); 0 or 1 is the classic single ring.
	Rings int `json:"rings,omitempty"`
	// Churn is a connection-churn spec (churn.ParseSpec syntax). A seedless
	// spec inherits each point's seed.
	Churn string `json:"churn,omitempty"`
	// Mode is an operating-mode spec (mode.ParseSpec syntax).
	Mode string `json:"mode,omitempty"`
}

// normalise fills the implicit axis defaults in place, so equivalent
// spellings share a cache key.
func (sp *SweepSpec) normalise() {
	if len(sp.Protocols) == 0 {
		sp.Protocols = []string{"ccr-edf"}
	}
	if len(sp.Nodes) == 0 {
		sp.Nodes = []int{8}
	}
	if len(sp.Loads) == 0 {
		sp.Loads = []float64{0.5}
	}
	if len(sp.Localities) == 0 {
		sp.Localities = []string{"uniform"}
	}
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{1}
	}
	if sp.Rings == 1 {
		sp.Rings = 0 // one ring is the default; share its cache key
	}
}

// Validate checks the axes with field-qualified errors.
func (sp *SweepSpec) Validate() error {
	if sp.HorizonSlots <= 0 {
		return fmt.Errorf("sweep: horizon_slots must be positive")
	}
	if sp.Workers < 0 {
		return fmt.Errorf("sweep: workers %d negative", sp.Workers)
	}
	for i, p := range sp.Protocols {
		switch p {
		case "ccr-edf", "cc-fpr", "tdma":
		default:
			return fmt.Errorf("sweep: protocols[%d]: unknown protocol %q", i, p)
		}
	}
	for i, n := range sp.Nodes {
		if n < 2 || n > 64 {
			return fmt.Errorf("sweep: nodes[%d] %d outside [2,64]", i, n)
		}
	}
	for i, u := range sp.Loads {
		if u <= 0 || u > 2 {
			return fmt.Errorf("sweep: loads[%d] %g outside (0,2]", i, u)
		}
	}
	for i, l := range sp.Localities {
		switch l {
		case "uniform", "neighbour", "opposite", "local":
		default:
			return fmt.Errorf("sweep: localities[%d]: unknown pattern %q", i, l)
		}
	}
	if sp.Rings < 0 || sp.Rings > 16 {
		return fmt.Errorf("sweep: rings %d outside [0,16]", sp.Rings)
	}
	if _, err := sp.knobs().Parse(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// knobs bundles the spec's fault, churn and mode specs.
func (sp *SweepSpec) knobs() sweep.Knobs {
	return sweep.Knobs{Faults: sp.Faults, Churn: sp.Churn, Mode: sp.Mode}
}

// Grid enumerates the spec's cartesian product in deterministic order.
func (sp *SweepSpec) Grid() []sweep.Point {
	pts := sweep.WithKnobs(sweep.Grid(sp.Protocols, sp.Nodes, sp.Loads, sp.Localities, sp.Seeds), sp.knobs())
	if sp.Rings > 1 {
		pts = sweep.WithRings(pts, sp.Rings)
	}
	return pts
}

// workerCount resolves the within-sweep parallelism.
func (sp *SweepSpec) workerCount() int {
	if sp.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return sp.Workers
}

// SweepKey returns the content-addressed cache key of a (normalised) spec.
// Workers is excluded: it changes scheduling, never results.
func SweepKey(sp *SweepSpec) (string, error) {
	n := *sp
	n.normalise()
	n.Workers = 0
	return canonicalKey("sweep", &n)
}

// SweepOutcome is the wire form of one grid point's result.
type SweepOutcome struct {
	Protocol        string    `json:"protocol"`
	Nodes           int       `json:"nodes"`
	Load            float64   `json:"load"`
	Locality        string    `json:"locality"`
	Seed            uint64    `json:"seed"`
	Rings           int       `json:"rings,omitempty"`
	Delivered       int64     `json:"delivered"`
	MissRatio       float64   `json:"miss_ratio"`
	P99LatencyUs    float64   `json:"p99_latency_us"`
	ReuseFactor     float64   `json:"reuse_factor"`
	GapFraction     float64   `json:"gap_fraction"`
	FaultsInjected  int64     `json:"faults_injected,omitempty"`
	FaultsRecovered int64     `json:"faults_recovered,omitempty"`
	RingUtil        []float64 `json:"ring_util,omitempty"`
	CrossMissRatio  float64   `json:"cross_miss_ratio,omitempty"`
	AdmittedHard    int64     `json:"admitted_hard,omitempty"`
	AdmittedFirm    int64     `json:"admitted_firm,omitempty"`
	AdmittedBE      int64     `json:"admitted_be,omitempty"`
	EvictedHard     int64     `json:"evicted_hard,omitempty"`
	EvictedFirm     int64     `json:"evicted_firm,omitempty"`
	EvictedBE       int64     `json:"evicted_be,omitempty"`
	MissedHard      int64     `json:"missed_hard,omitempty"`
	MissedFirm      int64     `json:"missed_firm,omitempty"`
	MissedBE        int64     `json:"missed_be,omitempty"`
	ModeTransitions int64     `json:"mode_transitions,omitempty"`
	ModeShedBE      int64     `json:"mode_shed_be,omitempty"`
	BridgeDropped   int64     `json:"bridge_dropped,omitempty"`
	BridgeOverflow  int64     `json:"bridge_overflowed,omitempty"`
	Error           string    `json:"error,omitempty"`
}

// WireOutcome converts one grid point's result to the wire form.
func WireOutcome(o sweep.Outcome) SweepOutcome {
	w := SweepOutcome{
		Protocol:        o.Protocol,
		Nodes:           o.Nodes,
		Load:            o.Load,
		Locality:        o.Locality,
		Seed:            o.Seed,
		Rings:           o.Rings,
		Delivered:       o.Delivered,
		MissRatio:       o.MissRatio,
		P99LatencyUs:    o.P99Latency.Micros(),
		ReuseFactor:     o.ReuseFactor,
		GapFraction:     o.GapFraction,
		FaultsInjected:  o.FaultsInjected,
		FaultsRecovered: o.FaultsRecovered,
		RingUtil:        o.RingUtil,
		CrossMissRatio:  o.CrossMissRatio,
		AdmittedHard:    o.Admitted[sched.CritHard],
		AdmittedFirm:    o.Admitted[sched.CritFirm],
		AdmittedBE:      o.Admitted[sched.CritBestEffort],
		EvictedHard:     o.Evicted[sched.CritHard],
		EvictedFirm:     o.Evicted[sched.CritFirm],
		EvictedBE:       o.Evicted[sched.CritBestEffort],
		MissedHard:      o.Missed[sched.CritHard],
		MissedFirm:      o.Missed[sched.CritFirm],
		MissedBE:        o.Missed[sched.CritBestEffort],
		ModeTransitions: o.ModeTransitions,
		ModeShedBE:      o.ModeShedBE,
		BridgeDropped:   o.BridgeDropped,
		BridgeOverflow:  o.BridgeOverflowed,
	}
	if o.Err != nil {
		w.Error = o.Err.Error()
	}
	return w
}

// Outcome converts the wire form back into sweep.Outcome, so table and CSV
// output is byte-identical whether the grid ran locally or remotely (the
// sweep CSV header round-trip contract). k re-attaches the point's knobs,
// which the wire form does not carry per point.
func (w SweepOutcome) Outcome(k sweep.Knobs) sweep.Outcome {
	o := sweep.Outcome{
		Point: sweep.Point{
			Protocol: w.Protocol,
			Nodes:    w.Nodes,
			Load:     w.Load,
			Locality: w.Locality,
			Seed:     w.Seed,
			Rings:    w.Rings,
			Knobs:    k,
		},
		Delivered:       w.Delivered,
		MissRatio:       w.MissRatio,
		P99Latency:      timing.Time(w.P99LatencyUs * float64(timing.Microsecond)),
		ReuseFactor:     w.ReuseFactor,
		GapFraction:     w.GapFraction,
		FaultsInjected:  w.FaultsInjected,
		FaultsRecovered: w.FaultsRecovered,
		RingUtil:        w.RingUtil,
		CrossMissRatio:  w.CrossMissRatio,
	}
	o.Admitted[sched.CritHard] = w.AdmittedHard
	o.Admitted[sched.CritFirm] = w.AdmittedFirm
	o.Admitted[sched.CritBestEffort] = w.AdmittedBE
	o.Evicted[sched.CritHard] = w.EvictedHard
	o.Evicted[sched.CritFirm] = w.EvictedFirm
	o.Evicted[sched.CritBestEffort] = w.EvictedBE
	o.Missed[sched.CritHard] = w.MissedHard
	o.Missed[sched.CritFirm] = w.MissedFirm
	o.Missed[sched.CritBestEffort] = w.MissedBE
	o.ModeTransitions = w.ModeTransitions
	o.ModeShedBE = w.ModeShedBE
	o.BridgeDropped = w.BridgeDropped
	o.BridgeOverflowed = w.BridgeOverflow
	if w.Error != "" {
		o.Err = errors.New(w.Error)
	}
	return o
}

// SweepResult is the machine-readable result of one sweep job, deterministic
// for a given (spec, engine version) like Summary is for scenarios.
type SweepResult struct {
	Schema int            `json:"schema"`
	Engine string         `json:"engine"`
	Key    string         `json:"key,omitempty"`
	Points []SweepOutcome `json:"points"`
}

// encodeSweep converts outcomes to the deterministic wire form.
func encodeSweep(key string, outcomes []sweep.Outcome) ([]byte, error) {
	res := SweepResult{Schema: SummarySchema, Engine: EngineVersion, Key: key}
	for _, o := range outcomes {
		res.Points = append(res.Points, WireOutcome(o))
	}
	return encodeJSONLine(res)
}

// encodeSweepPoints encodes already-wire-form points under key. Scattered
// sweeps stitch with this: a point's wire form survives a JSON round trip
// through a sub-sweep result exactly (encoding/json emits the shortest
// representation that round-trips a float64), so a cluster-assembled result
// is byte-identical to a locally-run one.
func encodeSweepPoints(key string, points []SweepOutcome) ([]byte, error) {
	return encodeJSONLine(SweepResult{Schema: SummarySchema, Engine: EngineVersion, Key: key, Points: points})
}

// PointSpec narrows a (normalised) spec to a single grid point: a
// one-value-per-axis sub-sweep. Sub-sweeps are what a cluster scatters —
// each is an ordinary content-addressed sweep job, so every grid point gets
// its own cache line and a re-run after a peer failure only re-simulates
// the points that were lost.
func (sp *SweepSpec) PointSpec(pt sweep.Point) *SweepSpec {
	sub := &SweepSpec{
		Protocols:    []string{pt.Protocol},
		Nodes:        []int{pt.Nodes},
		Loads:        []float64{pt.Load},
		Localities:   []string{pt.Locality},
		Seeds:        []uint64{pt.Seed},
		HorizonSlots: sp.HorizonSlots,
		Faults:       sp.Faults,
		Rings:        sp.Rings,
		Churn:        sp.Churn,
		Mode:         sp.Mode,
	}
	sub.normalise()
	return sub
}
