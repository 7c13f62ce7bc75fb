package network

import (
	"testing"

	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

// TestObserverSeesEngineEvents: a custom observer attached through the
// pipeline sees the same protocol reality the built-in metrics observer
// aggregates — completions, fragments, arbitration rounds and hand-overs all
// line up with Metrics.
func TestObserverSeesEngineEvents(t *testing.T) {
	net := newEDF(t, 8, sched.Map5Bit, true, nil)
	var completions, fragments, arbitrations, handovers, slots int64
	var latencySum timing.Time
	net.Attach(obs.Func(func(e *obs.Event) {
		switch e.Kind {
		case obs.KindSlotStart:
			slots++
		case obs.KindMessageComplete:
			completions++
			latencySum += e.Latency
			if e.Msg == nil || e.Msg.Delivered != e.Msg.Slots {
				t.Errorf("completion event with partial message: %+v", e.Msg)
			}
		case obs.KindFragmentDelivered:
			fragments++
		case obs.KindArbitration:
			arbitrations++
			if e.Outcome == nil || len(e.Requests) == 0 {
				t.Error("arbitration event without outcome or requests")
			}
		case obs.KindHandover:
			handovers++
			if e.Gap < 0 {
				t.Errorf("negative hand-over gap %v", e.Gap)
			}
		}
	}))
	for i := 0; i < 8; i++ {
		if _, err := net.OpenConnection(sched.Connection{
			Src: i, Dests: ring.Node((i + 3) % 8), Period: 20 * net.Params().SlotTime(), Slots: 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	net.RunSlots(400)

	m := net.Metrics()
	if completions == 0 {
		t.Fatal("observer saw no completions")
	}
	if completions != m.MessagesDelivered.Value() {
		t.Errorf("observer counted %d completions, metrics %d", completions, m.MessagesDelivered.Value())
	}
	if fragments != m.FragmentsDelivered.Value() {
		t.Errorf("observer counted %d fragments, metrics %d", fragments, m.FragmentsDelivered.Value())
	}
	if slots != m.Slots.Value() {
		t.Errorf("observer counted %d slots, metrics %d", slots, m.Slots.Value())
	}
	if handovers == 0 || arbitrations == 0 {
		t.Errorf("observer missed handovers (%d) or arbitrations (%d)", handovers, arbitrations)
	}
	if latencySum == 0 {
		t.Error("observer accumulated zero latency")
	}
}

// TestMetricsMatchWithAndWithoutExtraObservers: attaching extra observers
// must not perturb the simulation — metrics are identical with and without
// them (instrumentation is read-only).
func TestMetricsMatchWithAndWithoutExtraObservers(t *testing.T) {
	run := func(instrument bool) *Metrics {
		net := newEDF(t, 8, sched.Map5Bit, true, func(c *Config) {
			c.LossProb = 0.05
			c.Reliable = true
			c.Seed = 99
		})
		if instrument {
			net.AttachDataCheck()
			net.AttachInvariantChecker()
			net.Attach(obs.NewLatencyProbe(8))
			net.Attach(obs.Func(func(*obs.Event) {}))
		}
		for i := 0; i < 8; i++ {
			if _, err := net.OpenConnection(sched.Connection{
				Src: i, Dests: ring.Node((i + 2) % 8), Period: 10 * net.Params().SlotTime(), Slots: 1,
			}); err != nil {
				t.Fatal(err)
			}
		}
		net.RunSlots(300)
		return net.Metrics()
	}
	plain, instrumented := run(false), run(true)
	if plain.MessagesDelivered.Value() != instrumented.MessagesDelivered.Value() ||
		plain.FragmentsDropped.Value() != instrumented.FragmentsDropped.Value() ||
		plain.Retransmits.Value() != instrumented.Retransmits.Value() ||
		plain.GapTime != instrumented.GapTime ||
		plain.Slots.Value() != instrumented.Slots.Value() {
		t.Fatalf("observers perturbed the run:\nplain:        delivered=%d dropped=%d retx=%d gap=%v slots=%d\ninstrumented: delivered=%d dropped=%d retx=%d gap=%v slots=%d",
			plain.MessagesDelivered.Value(), plain.FragmentsDropped.Value(), plain.Retransmits.Value(), plain.GapTime, plain.Slots.Value(),
			instrumented.MessagesDelivered.Value(), instrumented.FragmentsDropped.Value(), instrumented.Retransmits.Value(), instrumented.GapTime, instrumented.Slots.Value())
	}
	if instrumented.WireErrors.Value() != 0 || instrumented.InvariantViolations.Value() != 0 {
		t.Fatalf("checkers flagged a clean run: wire=%d invariants=%v",
			instrumented.WireErrors.Value(), instrumented.Violations)
	}
}

// TestCheckersDeclareInterests pins the verifiers' declared interests: with
// the wire, data and invariant checkers attached the pipeline does not want
// KindRequestSampled, so the engine never builds the N per-slot sampling
// events. An observer without declared interests, attached after them,
// widens the pipeline back to every kind and receives N sampled events per
// slot.
func TestCheckersDeclareInterests(t *testing.T) {
	const nodes = 8
	net := newEDF(t, nodes, sched.Map5Bit, true, nil)
	net.AttachWireCheck()
	net.AttachDataCheck()
	net.AttachInvariantChecker()
	if net.pipe.Wants(obs.KindRequestSampled) {
		t.Fatal("checkers alone make the pipeline want KindRequestSampled")
	}
	var sampled, rounds int64
	net.Attach(obs.Func(func(e *obs.Event) {
		switch e.Kind {
		case obs.KindRequestSampled:
			sampled++
		case obs.KindArbitration:
			rounds++
		}
	}))
	if !net.pipe.Wants(obs.KindRequestSampled) {
		t.Fatal("an observer without declared interests does not widen the pipeline")
	}
	for i := 0; i < nodes; i++ {
		if _, err := net.SubmitMessage(sched.ClassBestEffort, i, ring.Node((i+3)%nodes), 50, 0); err != nil {
			t.Fatal(err)
		}
	}
	net.RunSlots(100)
	slots := net.Metrics().Slots.Value()
	if slots == 0 || rounds != slots || sampled != nodes*slots {
		t.Fatalf("observer saw %d sampled events and %d arbitration rounds over %d slots, want %d and %d",
			sampled, rounds, slots, nodes*slots, slots)
	}
	if v := net.Metrics().WireErrors.Value(); v != 0 {
		t.Fatalf("%d wire errors", v)
	}
}
