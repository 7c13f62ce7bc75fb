package network

import (
	"math"

	"ccredf/internal/core"
	"ccredf/internal/fault"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/stats"
	"ccredf/internal/trace"
	"ccredf/internal/wire"
)

// Attach subscribes an observer to the network's protocol-event pipeline.
// Observers fire synchronously in attachment order on the simulation thread;
// they must not retain the event past OnEvent. Attach before running the
// simulation — events are not replayed.
func (n *Network) Attach(o obs.Observer) { n.pipe.Attach(o) }

// AttachTracer subscribes a protocol tracer. A nil tracer is ignored.
func (n *Network) AttachTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	n.pipe.Attach(trace.NewObserver(tr))
}

// AttachWireCheck subscribes the control-channel codec verifier: every
// arbitration's collection and distribution packets are routed through the
// bit-serial codec and the round trip compared, exactly as the hardware would
// serialise them. Failures count in Metrics.WireErrors.
func (n *Network) AttachWireCheck() {
	n.pipe.Attach(&wireChecker{r: n.r, errs: &n.metrics.WireErrors})
}

// AttachDataCheck subscribes the data-channel codec verifier: every
// transmitted fragment is serialised as the eight data fibres would carry it
// (header + payload + CRC-16) and the receiver-side decode verified.
// Failures count in Metrics.WireErrors.
func (n *Network) AttachDataCheck() {
	n.pipe.Attach(&dataChecker{
		nodes:        n.r.Nodes(),
		payloadBytes: n.params.SlotPayloadBytes,
		errs:         &n.metrics.WireErrors,
	})
}

// AttachInvariantChecker subscribes the protocol-invariant verifier of
// DESIGN.md §6 (link-disjoint grants, no clock-break crossing, master
// dominance, grant/deny partition). Violations count in
// Metrics.InvariantViolations with the first few recorded in
// Metrics.Violations.
func (n *Network) AttachInvariantChecker() {
	n.pipe.Attach(&invariantChecker{r: n.r, proto: n.proto, m: n.metrics})
}

// metricsObserver aggregates the event stream into Metrics. It is attached
// first by New, so built-in accounting always runs and later observers see
// the same events it does.
type metricsObserver struct {
	m       *Metrics
	payload int
}

// Kinds declares the kinds the switch below consumes, so a network with only
// the built-in accounting attached never pays for the per-node
// KindRequestSampled emits (N per slot) or the arbitration round event.
func (o *metricsObserver) Kinds() obs.KindSet {
	return obs.AllKinds &^ obs.KindsOf(obs.KindRequestSampled, obs.KindArbitration, obs.KindMasterLoss)
}

func (o *metricsObserver) OnEvent(e *obs.Event) {
	m := o.m
	switch e.Kind {
	case obs.KindSlotStart:
		m.Slots.Inc()
	case obs.KindGrantWasted:
		m.WastedGrants.Inc()
	case obs.KindSlotData:
		m.DeniedRequests.Add(int64(e.Denied))
		if e.Busy > 0 {
			m.SlotsWithData.Inc()
			m.BusyLinks += int64(e.Busy)
		}
	case obs.KindFragmentSent:
		m.Grants.Inc()
		m.NodeSent[e.Node]++
	case obs.KindFragmentLost:
		if e.Corrupted {
			m.FragmentsCorrupted.Inc()
		}
		m.FragmentsDropped.Inc()
	case obs.KindRetransmit:
		m.Retransmits.Inc()
	case obs.KindFragmentDelivered:
		m.FragmentsDelivered.Inc()
		m.NodeReceived[e.Peer]++
		m.BytesDelivered.Add(int64(o.payload))
	case obs.KindMessageComplete:
		m.MessagesDelivered.Inc()
		if int(e.Msg.Class) < len(m.Latency) {
			m.Latency[e.Msg.Class].Observe(e.Latency)
		}
	case obs.KindMessageLost:
		m.MessagesLost.Inc()
	case obs.KindDeadlineMiss:
		if e.User {
			m.UserDeadlineMisses.Inc()
		} else {
			m.NetDeadlineMisses.Inc()
		}
	case obs.KindLateDrop:
		m.LateDrops.Inc()
	case obs.KindHandover, obs.KindRecovery:
		m.GapTime += e.Gap
	case obs.KindFaultInjected:
		m.FaultsInjected.Inc()
		if e.Fault == fault.NodeCrash {
			m.NodeCrashes.Inc()
		}
	case obs.KindFaultDetected:
		m.FaultsDetected.Inc()
	case obs.KindFaultRecovered:
		m.FaultsRecovered.Inc()
	}
}

// wireChecker verifies the control-channel packet codecs on every
// arbitration. The collection scratch, decode target and bit writer persist
// across rounds: the checker runs once per slot for the lifetime of a
// simulation, and round-trip verification must not turn the steady-state slot
// loop into an allocation source.
type wireChecker struct {
	r    ring.Ring
	errs *stats.Counter
	c    wire.Collection
	got  wire.Collection
	enc  wire.Writer
}

// Kinds declares the one kind the checker reads. Without it the pipeline
// would assume every kind wanted and build N KindRequestSampled events per
// slot for the checker to discard.
func (w *wireChecker) Kinds() obs.KindSet { return obs.KindsOf(obs.KindArbitration) }

func (w *wireChecker) OnEvent(e *obs.Event) {
	if e.Kind != obs.KindArbitration {
		return
	}
	reqs := e.Requests
	if len(reqs) > w.r.Nodes() {
		// With the secondary-request extension the combined slice appends
		// the secondaries after the per-node primaries; the baseline
		// collection packet carries only the first N entries.
		reqs = reqs[:w.r.Nodes()]
	}
	w.checkCollection(reqs)
	w.checkDistribution(*e.Outcome)
}

// checkCollection serialises the sampled requests exactly as the control
// fibre would and verifies the round trip.
func (w *wireChecker) checkCollection(reqs []core.Request) {
	if cap(w.c.Requests) < len(reqs) {
		w.c.Requests = make([]wire.Request, len(reqs))
	}
	w.c.Requests = w.c.Requests[:len(reqs)]
	for i, r := range reqs {
		if r.Empty() {
			w.c.Requests[i] = wire.Request{}
			continue
		}
		w.c.Requests[i] = wire.Request{
			Prio:    r.Prio,
			Reserve: w.r.PathLinks(r.Node, r.Dests),
			Dests:   r.Dests,
		}
	}
	if err := wire.EncodeCollectionInto(&w.enc, w.c, w.r.Nodes()); err != nil {
		w.errs.Inc()
		return
	}
	if err := wire.DecodeCollectionInto(&w.got, w.enc.Bytes(), w.r.Nodes()); err != nil {
		w.errs.Inc()
		return
	}
	for i := range w.c.Requests {
		if w.got.Requests[i] != w.c.Requests[i] {
			w.errs.Inc()
			return
		}
	}
}

// checkDistribution serialises the arbitration outcome as the
// distribution-phase packet and verifies the round trip.
func (w *wireChecker) checkDistribution(out core.Outcome) {
	d := wire.Distribution{HPNode: out.Master, Granted: out.GrantedSet().Add(out.Master)}
	if err := wire.EncodeDistributionInto(&w.enc, d, w.r.Nodes()); err != nil {
		w.errs.Inc()
		return
	}
	got, err := wire.DecodeDistribution(w.enc.Bytes(), w.r.Nodes())
	if err != nil || got.HPNode != d.HPNode || got.Granted != d.Granted {
		w.errs.Inc()
	}
}

// dataChecker verifies the data-channel packet codec on every transmitted
// fragment, as the receiver hardware would. Payload scratch, bit writer and
// decode target persist across fragments so per-fragment verification stays
// allocation-free in steady state.
type dataChecker struct {
	nodes        int
	payloadBytes int
	errs         *stats.Counter
	scratch      []byte
	enc          wire.Writer
	got          wire.DataPacket
}

// Kinds declares the one kind the checker reads (see wireChecker.Kinds).
func (d *dataChecker) Kinds() obs.KindSet { return obs.KindsOf(obs.KindFragmentSent) }

func (d *dataChecker) OnEvent(e *obs.Event) {
	if e.Kind != obs.KindFragmentSent {
		return
	}
	m, g := e.Msg, e.Grant
	if uint64(m.Slots) > math.MaxUint16 || uint64(m.Sent-1) > math.MaxUint16 || uint64(m.ID) > math.MaxUint32 {
		// The header would wrap Total, Fragment or MsgID — and wrap them
		// identically on both sides of the round trip below, which would
		// then pass. A value that does not fit its field is the error.
		d.errs.Inc()
		return
	}
	headerBytes := (wire.DataPacketBits(d.nodes, 0) + 7) / 8
	payloadLen := d.payloadBytes - headerBytes
	if payloadLen < 1 {
		payloadLen = 1
	}
	if d.scratch == nil || len(d.scratch) != payloadLen {
		d.scratch = make([]byte, payloadLen)
	}
	// Deterministic pseudo-payload so the CRC covers realistic bytes.
	seed := byte(m.ID) ^ byte(m.Sent)
	for i := range d.scratch {
		d.scratch[i] = seed + byte(i)
	}
	pkt := wire.DataPacket{
		Version:  wire.DataVersion,
		Class:    uint8(m.Class),
		Src:      m.Src,
		Dests:    g.Dests,
		MsgID:    uint32(m.ID),
		Fragment: uint16(m.Sent - 1),
		Total:    uint16(m.Slots),
		Payload:  d.scratch,
	}
	if err := wire.EncodeDataInto(&d.enc, pkt, d.nodes); err != nil {
		d.errs.Inc()
		return
	}
	if err := wire.DecodeDataInto(&d.got, d.enc.Bytes(), d.nodes); err != nil ||
		d.got.MsgID != pkt.MsgID || d.got.Fragment != pkt.Fragment ||
		d.got.Src != pkt.Src || d.got.Dests != pkt.Dests {
		d.errs.Inc()
	}
}
