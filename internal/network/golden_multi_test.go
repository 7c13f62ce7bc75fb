package network

import (
	"bytes"
	"fmt"
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/fault"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
	"ccredf/internal/topology"
	"ccredf/internal/trace"
)

// goldenMultiScenario runs the canonical two-ring bridged scenario — a
// cross-ring connection over one bridge plus a local periodic connection on
// each ring — and returns both rings' full text traces.
func goldenMultiScenario(t *testing.T) []byte {
	t.Helper()
	topo, err := topology.New(topology.Spec{
		Rings:   []int{5, 5},
		Bridges: []topology.Bridge{{RingA: 0, NodeA: 2, RingB: 1, NodeB: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := make([]Config, 2)
	for i := range cfgs {
		arb, err := core.NewArbiter(5, sched.Map5Bit, true)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = Config{Params: timing.DefaultParams(5), Protocol: arb, Seed: uint64(100 + i)}
	}
	m, err := NewMulti(MultiConfig{Topo: topo, RingConfigs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*trace.Tracer, 2)
	for i := range tracers {
		tracers[i] = trace.New(0)
		m.Ring(i).AttachWireCheck()
		m.Ring(i).AttachInvariantChecker()
		m.Ring(i).AttachTracer(tracers[i])
	}
	p := m.Ring(0).Params()
	if _, err := m.OpenCross(CrossRequest{
		SrcRing: 0, Src: 0, DstRing: 1, Dests: ring.Node(3),
		Period: 10 * p.SlotTime(), Slots: 1, Deadline: 10 * p.SlotTime(),
	}); err != nil {
		t.Fatal(err)
	}
	for ri := 0; ri < 2; ri++ {
		if _, err := m.Ring(ri).OpenConnection(sched.Connection{
			Src: 1, Dests: ring.Node(4), Period: 7 * p.SlotTime(), Slots: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.RunSlots(30)
	for ri := 0; ri < 2; ri++ {
		if v := m.Ring(ri).Metrics().InvariantViolations.Value(); v != 0 {
			t.Fatalf("ring %d has invariant violations: %v", ri, m.Ring(ri).Metrics().Violations)
		}
	}
	var out bytes.Buffer
	for ri, tr := range tracers {
		fmt.Fprintf(&out, "--- ring %d ---\n", ri)
		if err := tr.WriteText(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestGoldenMultiTrace pins the multi-ring fabric's slot-by-slot behaviour
// on the shared clock: both rings' slot loops, the bridge's store-and-forward
// hop, and the relayed segment's arbitration must stay byte-identical.
// Regenerate deliberately with
// `go test ./internal/network -run GoldenMulti -update-golden`.
func TestGoldenMultiTrace(t *testing.T) {
	compareGolden(t, "golden_multi_trace.txt", goldenMultiScenario(t))
}

// goldenMultiFaultScenario runs three bridged rings through the paths the
// fault-free golden never reaches: reliable retransmission on every ring, a
// fault plan on the middle ring whose crash silences the elected master (the
// ring then waits on a heap-scheduled recovery while its neighbours keep
// clocking) and takes a bridge station down, cross traffic over both
// bridges, and a run horizon that lands inside a slot.
func goldenMultiFaultScenario(t *testing.T) []byte {
	t.Helper()
	topo, err := topology.New(topology.Spec{
		Rings: []int{5, 7, 6},
		Bridges: []topology.Bridge{
			{RingA: 0, NodeA: 2, RingB: 1, NodeB: 0},
			{RingA: 1, NodeA: 4, RingB: 2, NodeB: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParseSpec("coll=0.01,ho=0.01,crash=1@40+30,crash=0@90+20,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{5, 7, 6}
	cfgs := make([]Config, len(sizes))
	for i, n := range sizes {
		arb, err := core.NewArbiter(n, sched.Map5Bit, true)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = Config{
			Params: timing.DefaultParams(n), Protocol: arb, Seed: uint64(200 + i),
			LossProb: 0.02, Reliable: true,
		}
	}
	cfgs[1].Faults = &plan
	m, err := NewMulti(MultiConfig{Topo: topo, RingConfigs: cfgs})
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*trace.Tracer, len(sizes))
	for i := range tracers {
		tracers[i] = trace.New(0)
		m.Ring(i).AttachWireCheck()
		m.Ring(i).AttachInvariantChecker()
		m.Ring(i).AttachTracer(tracers[i])
	}
	slot := m.Ring(0).Params().SlotTime()
	for _, req := range []CrossRequest{
		{SrcRing: 0, Src: 0, DstRing: 2, Dests: ring.Node(3), Period: 20 * slot, Slots: 1, Deadline: 36 * slot},
		{SrcRing: 2, Src: 4, DstRing: 0, Dests: ring.Node(1), Period: 24 * slot, Slots: 2, Deadline: 45 * slot},
	} {
		if _, err := m.OpenCross(req); err != nil {
			t.Fatal(err)
		}
	}
	for ri := range sizes {
		if _, err := m.Ring(ri).OpenConnection(sched.Connection{
			Src: 1, Dests: ring.Node(3), Period: 7 * slot, Slots: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.RunSlots(100)
	m.Run(m.Now() + 12345)
	m.RunSlots(300)
	for ri := range sizes {
		if v := m.Ring(ri).Metrics().InvariantViolations.Value(); v != 0 {
			t.Fatalf("ring %d has invariant violations: %v", ri, m.Ring(ri).Metrics().Violations)
		}
		if v := m.Ring(ri).Metrics().WireErrors.Value(); v != 0 {
			t.Fatalf("ring %d has %d wire errors", ri, v)
		}
	}
	var out bytes.Buffer
	for ri, tr := range tracers {
		fmt.Fprintf(&out, "--- ring %d ---\n", ri)
		if err := tr.WriteText(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestGoldenMultiFaultTrace pins multi-ring execution under faults: a ring
// left silent by a master loss and re-armed by its recovery timeout, a dead
// bridge, retransmissions and a mid-slot horizon, all on one shared clock.
// Regenerate deliberately with
// `go test ./internal/network -run GoldenMulti -update-golden`.
func TestGoldenMultiFaultTrace(t *testing.T) {
	compareGolden(t, "golden_multi_fault_trace.txt", goldenMultiFaultScenario(t))
}

func TestGoldenMultiScenarioDeterminism(t *testing.T) {
	for name, scenario := range map[string]func(*testing.T) []byte{
		"fault-free": goldenMultiScenario,
		"faults":     goldenMultiFaultScenario,
	} {
		if !bytes.Equal(scenario(t), scenario(t)) {
			t.Fatalf("golden multi scenario %s is not deterministic", name)
		}
	}
}
