package network

import (
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/stats"
	"ccredf/internal/timing"
)

func newDataNet(t *testing.T, mut func(*Config)) *Network {
	t.Helper()
	p := timing.DefaultParams(8)
	arb, err := core.NewArbiter(8, sched.Map5Bit, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: p, Protocol: arb}
	if mut != nil {
		mut(&cfg)
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.AttachDataCheck()
	return net
}

func TestDataCheckCleanRun(t *testing.T) {
	net := newDataNet(t, nil)
	for i := 0; i < 4; i++ {
		if _, err := net.SubmitMessage(sched.ClassRealTime, i, ring.Node(i+2), 3, timing.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(timing.Millisecond)
	m := net.Metrics()
	if m.WireErrors.Value() != 0 {
		t.Fatalf("data codec errors: %d", m.WireErrors.Value())
	}
	if m.FragmentsDelivered.Value() != 12 {
		t.Fatalf("FragmentsDelivered = %d", m.FragmentsDelivered.Value())
	}
}

func TestCorruptionDetectedAndRetransmitted(t *testing.T) {
	net := newDataNet(t, func(c *Config) {
		c.CorruptProb = 0.25
		c.Reliable = true
		c.Seed = 3
	})
	m, _ := net.SubmitMessage(sched.ClassRealTime, 0, ring.Node(4), 10, 50*timing.Millisecond)
	net.Run(20 * timing.Millisecond)
	mt := net.Metrics()
	if m.Delivered != 10 {
		t.Fatalf("Delivered = %d, want 10 despite corruption", m.Delivered)
	}
	if mt.FragmentsCorrupted.Value() == 0 {
		t.Fatal("expected corrupted fragments at 25% corruption")
	}
	if mt.Retransmits.Value() != mt.FragmentsDropped.Value() {
		t.Fatalf("every discarded fragment must be retransmitted: %d vs %d",
			mt.Retransmits.Value(), mt.FragmentsDropped.Value())
	}
	if mt.FragmentsCorrupted.Value() != mt.FragmentsDropped.Value() {
		t.Fatalf("with only corruption injected, dropped (%d) must equal corrupted (%d)",
			mt.FragmentsDropped.Value(), mt.FragmentsCorrupted.Value())
	}
}

func TestCorruptionWithoutReliabilityLosesMessages(t *testing.T) {
	net := newDataNet(t, func(c *Config) {
		c.CorruptProb = 1.0
		c.Seed = 5
	})
	m, _ := net.SubmitMessage(sched.ClassBestEffort, 1, ring.Node(5), 2, timing.Millisecond)
	net.Run(timing.Millisecond)
	if m.Delivered != 0 {
		t.Fatal("fully corrupted stream delivered data")
	}
	if net.Metrics().MessagesLost.Value() != 1 {
		t.Fatalf("MessagesLost = %d", net.Metrics().MessagesLost.Value())
	}
}

func TestCorruptProbValidation(t *testing.T) {
	p := timing.DefaultParams(8)
	arb, _ := core.NewArbiter(8, sched.Map5Bit, true)
	if _, err := New(Config{Params: p, Protocol: arb, CorruptProb: -0.1}); err == nil {
		t.Fatal("negative corruption probability accepted")
	}
	if _, err := New(Config{Params: p, Protocol: arb, CorruptProb: 1.1}); err == nil {
		t.Fatal("corruption probability > 1 accepted")
	}
}

func TestLossAndCorruptionCompose(t *testing.T) {
	net := newDataNet(t, func(c *Config) {
		c.LossProb = 0.2
		c.CorruptProb = 0.2
		c.Reliable = true
		c.Seed = 9
	})
	m, _ := net.SubmitMessage(sched.ClassRealTime, 0, ring.Node(3), 20, timing.Second)
	net.Run(50 * timing.Millisecond)
	mt := net.Metrics()
	if m.Delivered != 20 {
		t.Fatalf("Delivered = %d", m.Delivered)
	}
	// Both fault kinds occurred and every one was recovered.
	if mt.FragmentsCorrupted.Value() == 0 || mt.FragmentsDropped.Value() <= mt.FragmentsCorrupted.Value() {
		t.Fatalf("fault mix wrong: dropped=%d corrupted=%d",
			mt.FragmentsDropped.Value(), mt.FragmentsCorrupted.Value())
	}
	if mt.Retransmits.Value() != mt.FragmentsDropped.Value() {
		t.Fatal("retransmit accounting wrong")
	}
}

// TestDataCheckFieldWidths pins the data checker at the header's field
// widths: a value that does not fit Total/Fragment (16 bits) or MsgID (32
// bits) counts as a wire error instead of wrapping identically on both sides
// of the round trip and passing.
func TestDataCheckFieldWidths(t *testing.T) {
	for _, tc := range []struct {
		name     string
		id       int64
		slots    int
		sent     int
		wantErrs int64
	}{
		{"widest message, last fragment", 1, 65535, 65535, 0},
		{"too many fragments", 1, 70000, 65537, 1},
		{"message ID beyond 32 bits", 1 << 32, 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var errs stats.Counter
			d := &dataChecker{nodes: 8, payloadBytes: timing.DefaultParams(8).SlotPayloadBytes, errs: &errs}
			d.OnEvent(&obs.Event{
				Kind:  obs.KindFragmentSent,
				Msg:   &sched.Message{ID: tc.id, Class: sched.ClassRealTime, Src: 0, Dests: ring.Node(2), Slots: tc.slots, Sent: tc.sent},
				Grant: core.Grant{Node: 0, Dests: ring.Node(2)},
			})
			if got := errs.Value(); got != tc.wantErrs {
				t.Fatalf("wire errors = %d, want %d", got, tc.wantErrs)
			}
		})
	}
}
