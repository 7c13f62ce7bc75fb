package churn

import (
	"reflect"
	"strings"
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/network"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"rate=50000,hold=2000",
		"rate=50000,hold=2000,hard=0.3,firm=0.3,fbud=0.4,bbud=0.2,pmin=60,pmax=300,smax=3,seed=7",
		"rate=1e5,hold=500,seed=1",
		"rate=1e9,hold=1e9",
		"",
	}
	for _, in := range specs {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		out := s.String()
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parse of %q → %q: %v", in, out, err)
		}
		if s != s2 {
			t.Fatalf("round trip of %q changed the spec: %+v vs %+v", in, s, s2)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []struct{ spec, wantField string }{
		{"hold=2000", "rate_per_sec"},
		{"rate=1000", "mean_hold_us"},
		{"rate=1000,hold=100,hard=0.9,firm=0.9", "hard_frac + firm_frac"},
		{"rate=1000,hold=100,hard=-0.1,firm=0.2", "hard_frac"},
		{"rate=1000,hold=100,fbud=1.5", "firm_budget"},
		{"rate=1000,hold=100,bbud=-1", "be_budget"},
		{"rate=1000,hold=100,pmin=0,pmax=10", "min_period_slots"},
		{"rate=1000,hold=100,pmin=100,pmax=10", "max_period_slots"},
		{"rate=1000,hold=100,smax=200", "max_msg_slots"},
		{"rate=1000,hold=100,bogus=1", "unknown key"},
		{"rate=notanumber,hold=100", "rate"},
		{"justtext", "key=value"},
		// Non-finite or unrepresentable rates: NaN and oversized holds once
		// scheduled departures in the past, rates above 1e9/s never let the
		// clock advance.
		{"rate=50000,hold=nan", "hold: NaN is not finite"},
		{"rate=50000,hold=inf", "hold: +Inf is not finite"},
		{"rate=50000,hold=1e300", "mean_hold_us 1e+300 above 1e+09"},
		{"rate=1e12,hold=2000", "rate_per_sec 1e+12 above 1e+09"},
		{"rate=inf,hold=2000", "rate: +Inf is not finite"},
		{"rate=1000,hold=100,hard=nan", "hard: NaN is not finite"},
		{"rate=1000,hold=100,fbud=nan", "fbud: NaN is not finite"},
	}
	for _, c := range bad {
		if _, err := ParseSpec(c.spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", c.spec)
		} else if !strings.Contains(err.Error(), c.wantField) {
			t.Errorf("ParseSpec(%q) error %q does not name %q", c.spec, err, c.wantField)
		}
	}
}

func newNet(t testing.TB, n int) *network.Network {
	t.Helper()
	arb, err := core.NewArbiter(n, sched.Map5Bit, true)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New(network.Config{Params: timing.DefaultParams(n), Protocol: arb})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestAttachChurnInvariants runs a short churn workload and checks the load-
// bearing invariants end to end: determinism across two identical runs, hard
// connections never missing a network deadline, per-level densities within
// budget at the end, and evictions never touching hard connections.
func TestAttachChurnInvariants(t *testing.T) {
	run := func() (*Stats, network.Snapshot) {
		net := newNet(t, 16)
		st, err := Attach(net, Spec{RatePerSec: 200000, MeanHoldUs: 1500, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		net.RunSlots(30000)
		return st, net.Snapshot()
	}
	st, snap := run()
	if st.Arrivals < 1000 {
		t.Fatalf("only %d arrivals; generator too slow for the configured rate", st.Arrivals)
	}
	if st.Departures == 0 {
		t.Fatal("no departures despite short hold times")
	}
	if snap.MissedHard != 0 {
		t.Fatalf("hard-class deadline misses: %d (admission must keep hard feasible)", snap.MissedHard)
	}
	if st.Evicted[sched.CritHard] != 0 || snap.EvictedHard != 0 {
		t.Fatalf("hard connections were evicted: %d/%d", st.Evicted[sched.CritHard], snap.EvictedHard)
	}
	if st.Evicted[sched.CritFirm]+st.Evicted[sched.CritBestEffort] == 0 {
		t.Fatal("no firm/best-effort evictions; overload too weak to exercise degraded mode")
	}
	if st.Admitted[sched.CritHard] == 0 || st.Admitted[sched.CritFirm] == 0 || st.Admitted[sched.CritBestEffort] == 0 {
		t.Fatalf("admissions not spread across levels: %v", st.Admitted)
	}

	st2, snap2 := run()
	if *st != *st2 || !reflect.DeepEqual(snap, snap2) {
		t.Fatal("two identical seeded runs diverged")
	}
}

// TestAttachBudgetsRespected checks that the configured per-level budgets
// bound the accepted set throughout the run, not just at the end.
func TestAttachBudgetsRespected(t *testing.T) {
	net := newNet(t, 16)
	spec := Spec{RatePerSec: 150000, MeanHoldUs: 2000, FirmBudget: 0.4, BEBudget: 0.2, Seed: 3}
	if _, err := Attach(net, spec); err != nil {
		t.Fatal(err)
	}
	adm := net.Admission()
	for i := 0; i < 40; i++ {
		net.RunSlots(500)
		if d := adm.LevelDensity(sched.CritFirm); d > 0.4*adm.UMax()+1e-12 {
			t.Fatalf("chunk %d: firm density %v exceeds budget %v", i, d, 0.4*adm.UMax())
		}
		if d := adm.LevelDensity(sched.CritBestEffort); d > 0.2*adm.UMax()+1e-12 {
			t.Fatalf("chunk %d: best-effort density %v exceeds budget %v", i, d, 0.2*adm.UMax())
		}
		if d := adm.Density(); d > adm.UMax()+1e-12 {
			t.Fatalf("chunk %d: total density %v exceeds U_max %v", i, d, adm.UMax())
		}
	}
}
