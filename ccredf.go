// Package ccredf is a production-quality Go implementation of the CCR-EDF
// fibre-ribbon ring network — "Fibre-Ribbon Ring Network with Inherent
// Support for Earliest Deadline First Message Scheduling" (Bergenhem &
// Jonsson, IPDPS 2002) — together with the CC-FPR baseline it improves on,
// a deterministic discrete-event model of the optical hardware, the user
// services of the protocol family (logical real-time connections with online
// admission control, best-effort and non-real-time messaging, multicast,
// barrier synchronisation, global reduction, reliable transmission), and the
// full experiment suite described in DESIGN.md.
//
// # Quick start
//
//	cfg := ccredf.DefaultConfig(8) // 8-node ring
//	net, err := ccredf.New(cfg)
//	if err != nil { ... }
//
//	// Reserve a hard real-time channel: 1 slot every 10 slot-times.
//	conn, err := net.OpenConnection(ccredf.Connection{
//		Src: 0, Dests: ccredf.Node(4),
//		Period: 10 * net.Params().SlotTime(), Slots: 1,
//	})
//
//	// Fire-and-forget best effort.
//	net.SubmitMessage(ccredf.ClassBestEffort, 2, ccredf.Node(6), 1, ccredf.Millisecond)
//
//	net.Run(10 * ccredf.Millisecond) // advance simulated time
//	fmt.Println(net.Metrics().MessagesDelivered.Value())
//
// All time is simulated (integer picoseconds, type Time); runs are fully
// deterministic for a given Config.
package ccredf

import (
	"fmt"
	"io"

	"ccredf/internal/analysis"
	"ccredf/internal/ccfpr"
	"ccredf/internal/core"
	"ccredf/internal/fault"
	"ccredf/internal/network"
	"ccredf/internal/obs"
	"ccredf/internal/sched"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
	"ccredf/internal/trace"
)

// Protocol selects the medium access protocol.
type Protocol int

const (
	// CCREDF is the paper's protocol: the highest-priority requester
	// becomes master and clocks the network, giving per-slot EDF.
	CCREDF Protocol = iota
	// CCFPR is the baseline of refs [4]/[9]: round-robin clocking and
	// in-passing greedy link booking.
	CCFPR
	// TDMA is a static time-division baseline: each node owns every Nth
	// slot (guaranteed exactly 1/N each, no work-conserving sharing).
	TDMA
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case CCFPR:
		return "cc-fpr"
	case TDMA:
		return "tdma"
	default:
		return "ccr-edf"
	}
}

// Config configures a network. Zero values select sensible defaults via
// DefaultConfig.
type Config struct {
	// Params is the physical model of the ring (link lengths, bit rate,
	// slot payload…). See timing.DefaultParams for the defaults.
	Params Params
	// Protocol selects CCREDF (default) or the CCFPR baseline.
	Protocol Protocol
	// ExactEDF arbitrates on full-resolution deadlines instead of the
	// 5-bit logarithmic priority field of Table 1. The wire format still
	// carries 5 bits; exact mode models an idealised mapping function.
	ExactEDF bool
	// DisableSpatialReuse restricts the network to one transmission per
	// slot, the assumption of the schedulability analysis (Section 5).
	DisableSpatialReuse bool
	// DropLate discards real-time messages that already missed their
	// network-level deadline instead of sending them late.
	DropLate bool
	// Reliable enables the intrinsic acknowledgement/retransmission
	// service.
	Reliable bool
	// LossProb injects per-fragment loss (fault injection).
	LossProb float64
	// CorruptProb injects per-fragment bit corruption, detected by the
	// receiver's CRC-16 and recovered by the reliable service.
	CorruptProb float64
	// DataCheck runs every fragment through the data-channel codec
	// (header + CRC-16) and verifies the receiver-side decode.
	DataCheck bool
	// Seed drives every random process; equal seeds ⇒ identical runs.
	Seed uint64
	// TraceCapacity retains that many protocol trace records (0 disables
	// tracing, <0 means unbounded).
	TraceCapacity int
	// FailMasterAt kills the elected master after the given slot, to
	// exercise the designated-node recovery (0 disables).
	FailMasterAt int64
	// Faults is the deterministic fault-injection plan (nil disables; a
	// nil or zero plan leaves runs byte-identical to an unconfigured
	// network). See FaultPlan and ParseFaultSpec.
	Faults *FaultPlan
	// Mode enables the operating-mode protocol (nil disables): a hysteresis
	// state machine over per-window miss ratio and backlog that gates firm
	// admissions in Degraded mode and sheds best-effort traffic in Critical
	// mode. See ModeSpec and ParseModeSpec.
	Mode *ModeSpec
	// CheckInvariants verifies the protocol invariants on every
	// arbitration (Metrics.InvariantViolations must stay zero).
	CheckInvariants bool
	// SecondaryRequests enables the protocol extension in which each node
	// advertises its two best messages per collection round (better
	// spatial-reuse packing for 2× control-channel request fields).
	SecondaryRequests bool
}

// DefaultConfig returns the baseline configuration for an n-node ring:
// CCR-EDF with spatial reuse, 10 m links, 800 Mbit/s per fibre, 4 KiB slots.
func DefaultConfig(n int) Config {
	return Config{Params: timing.DefaultParams(n)}
}

// Network is a simulated CCR-EDF (or CC-FPR) ring. It embeds the engine, so
// every scheduling, traffic and metrics method is available directly; see
// internal/network for the full surface.
type Network struct {
	*network.Network
	cfg    Config
	tracer *trace.Tracer
}

// New builds a network from cfg.
func New(cfg Config) (*Network, error) {
	if cfg.Params.Nodes == 0 {
		return nil, fmt.Errorf("ccredf: zero-value Config; start from DefaultConfig")
	}
	mode := sched.Map5Bit
	if cfg.ExactEDF {
		mode = sched.MapExact
	}
	var proto core.Protocol
	var err error
	switch cfg.Protocol {
	case CCREDF:
		proto, err = core.NewArbiter(cfg.Params.Nodes, mode, !cfg.DisableSpatialReuse)
	case CCFPR:
		proto, err = ccfpr.NewArbiter(cfg.Params.Nodes, !cfg.DisableSpatialReuse)
	case TDMA:
		proto, err = tdma.NewArbiter(cfg.Params.Nodes, !cfg.DisableSpatialReuse)
	default:
		err = fmt.Errorf("ccredf: unknown protocol %d", cfg.Protocol)
	}
	if err != nil {
		return nil, err
	}
	var tracer *trace.Tracer
	if cfg.TraceCapacity != 0 {
		capacity := cfg.TraceCapacity
		if capacity < 0 {
			capacity = 0 // unbounded
		}
		tracer = trace.New(capacity)
	}
	inner, err := network.New(network.Config{
		Params:            cfg.Params,
		Protocol:          proto,
		DropLate:          cfg.DropLate,
		Reliable:          cfg.Reliable,
		LossProb:          cfg.LossProb,
		CorruptProb:       cfg.CorruptProb,
		Seed:              cfg.Seed,
		SecondaryRequests: cfg.SecondaryRequests,
		FailMasterAt:      cfg.FailMasterAt,
		Faults:            cfg.Faults,
		Mode:              cfg.Mode,
	})
	if err != nil {
		return nil, err
	}
	// Instrumentation rides on the protocol-event pipeline: the control
	// codec verifier always (it must stay silent), the rest as configured.
	// The verifier is cheap because the codec packs whole fields per step:
	// at N = 32 its round trips take about 2.2 µs of a 5.7 µs slot
	// (perfbench sim-ring32 --trace 1, 2-vCPU Xeon, go1.24.0; one bit per
	// call it was 16.5 of 24 µs). Further observers attach through Attach.
	inner.AttachWireCheck()
	if cfg.DataCheck {
		inner.AttachDataCheck()
	}
	if cfg.CheckInvariants {
		inner.AttachInvariantChecker()
	}
	inner.AttachTracer(tracer)
	return &Network{Network: inner, cfg: cfg, tracer: tracer}, nil
}

// Config returns the configuration the network was built with.
func (n *Network) Config() Config { return n.cfg }

// Trace returns the protocol tracer (nil unless TraceCapacity was set).
func (n *Network) Trace() *trace.Tracer { return n.tracer }

// FaultPlan declares deterministic fault injection: control-channel packet
// drops, clock-handover failures and node crash/restart schedules, all driven
// by a dedicated seeded stream so equal plans give byte-identical runs.
type FaultPlan = fault.Plan

// FaultCrash schedules one node crash (and optional restart) in a FaultPlan.
type FaultCrash = fault.Crash

// FaultKind classifies an injected fault in protocol events.
type FaultKind = fault.Kind

// Fault kinds carried by KindFaultInjected/Detected/Recovered events.
const (
	FaultCollectionDrop   = fault.CollectionDrop
	FaultDistributionDrop = fault.DistributionDrop
	FaultHandoverFail     = fault.HandoverFail
	FaultNodeCrash        = fault.NodeCrash
)

// Fault-lifecycle event kinds (Event.Fault carries the FaultKind).
const (
	KindFaultInjected  = obs.KindFaultInjected
	KindFaultDetected  = obs.KindFaultDetected
	KindFaultRecovered = obs.KindFaultRecovered
)

// Operating-mode transition kinds (Event.Node carries the previous mode,
// Event.Peer the new one) and bridge-backpressure kinds (Event.Node carries
// the bridge index; for KindBridgeCongested, Event.Busy is 1 on entering
// congestion and 0 on clearing).
const (
	KindModeNormal      = obs.KindModeNormal
	KindModeDegraded    = obs.KindModeDegraded
	KindModeCritical    = obs.KindModeCritical
	KindBridgeDrop      = obs.KindBridgeDrop
	KindBridgeOverflow  = obs.KindBridgeOverflow
	KindBridgeCongested = obs.KindBridgeCongested
)

// ParseFaultSpec parses a compact command-line fault spec such as
// "coll=0.01,ho=0.005,crash=3@100+50,seed=9"; see internal/fault.ParseSpec.
func ParseFaultSpec(spec string) (FaultPlan, error) { return fault.ParseSpec(spec) }

// Observer consumes protocol events; attach one with Attach before running.
type Observer = obs.Observer

// Event is one protocol occurrence delivered to observers.
type Event = obs.Event

// EventKind classifies protocol events.
type EventKind = obs.Kind

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = obs.Func

// EventExporter streams protocol events as JSON lines (one object per
// event); see NewEventExporter.
type EventExporter = obs.JSONLExporter

// NewEventExporter returns an observer that writes every protocol event to w
// as JSON lines. Attach it with Attach.
func NewEventExporter(w io.Writer) *EventExporter { return obs.NewJSONLExporter(w) }

// LatencyProbe aggregates per-source-node completion-latency percentiles.
type LatencyProbe = obs.LatencyProbe

// NewLatencyProbe returns a per-node latency observer for an n-node ring.
// Attach it with Attach and render it with its Table method after the run.
func NewLatencyProbe(n int) *LatencyProbe { return obs.NewLatencyProbe(n) }

// Bounds returns the analytic guarantees for params: U_max (Equation 6),
// the worst-case protocol latency (Equation 4) and the guaranteed payload
// rate.
func Bounds(p Params) (umax float64, latency Time, bytesPerSecond float64) {
	return p.UMax(), p.WorstCaseLatency(), p.UMax() * float64(p.SlotPayloadBytes) / p.SlotTime().Seconds()
}

// Verdict is the outcome of the exact offline feasibility test.
type Verdict = analysis.Verdict

// Feasibility verdicts.
const (
	Infeasible = analysis.Infeasible
	Feasible   = analysis.Feasible
	Unknown    = analysis.Unknown
)

// FeasibleExact runs the exact processor-demand EDF feasibility test on a
// connection set (supports constrained deadlines, where it is sharper than
// the online density test). It returns the verdict and, when infeasible,
// the first violating interval length.
func FeasibleExact(set []Connection, p Params) (Verdict, Time) {
	return analysis.DemandBoundFeasible(set, p)
}

// RecommendPayload returns the largest power-of-two slot payload whose
// worst-case protocol latency stays within maxLatency on an n-node ring
// (the Equations 2/4/6 design trade; see experiment E19).
func RecommendPayload(n int, maxLatency Time) (payload int, ok bool) {
	return analysis.RecommendPayload(n, maxLatency)
}
