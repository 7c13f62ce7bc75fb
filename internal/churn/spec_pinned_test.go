package churn

import "testing"

// TestParseSpecPinned pins ParseSpec's observable behaviour: the exact
// rendering of every accepted spec (trimming, skipped empty fields,
// last-wins scalar keys, render key order) and the exact error text of
// every rejected one.
func TestParseSpecPinned(t *testing.T) {
	valid := []struct{ in, want string }{
		{"", ""},
		{"rate=50000,hold=2000", "rate=50000,hold=2000"},
		{"rate=50000,hold=2000,hard=0.3,firm=0.3,fbud=0.4,bbud=0.2,pmin=60,pmax=300,smax=3,seed=7", "rate=50000,hold=2000,hard=0.3,firm=0.3,fbud=0.4,bbud=0.2,pmin=60,pmax=300,smax=3,seed=7"},
		{"rate=1e5,hold=500,seed=1", "rate=100000,hold=500,seed=1"},
		{"rate=200000,hold=1500,seed=5", "rate=200000,hold=1500,seed=5"},
		{" rate=1000 ,, hold=100 ", "rate=1000,hold=100"},
		{"rate=1,rate=2,hold=3", "rate=2,hold=3"},
		{"seed=3,smax=1,hold=10,rate=10", "rate=10,hold=10,smax=1,seed=3"},
		{"rate=1000,hold=100,hard=1", "rate=1000,hold=100,hard=1"},
		{"rate=1000,hold=100,pmin=60,smax=3", "rate=1000,hold=100,pmin=60,smax=3"},
		{"rate=2.5e3,hold=0.5,firm=0.25", "rate=2500,hold=0.5,firm=0.25"},
	}
	for _, c := range valid {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := s.String(); got != c.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
	bad := []struct{ in, want string }{
		{"hold=2000", "churn: rate_per_sec 0 must be positive"},
		{"rate=1000", "churn: mean_hold_us 0 must be positive"},
		{"rate=0", "churn: rate_per_sec 0 must be positive"},
		{"rate=-5,hold=10", "churn: rate_per_sec -5 must be positive"},
		{"rate=1000,hold=100,hard=0.9,firm=0.9", "churn: hard_frac + firm_frac 1.8 exceeds 1"},
		{"rate=1000,hold=100,hard=-0.1,firm=0.2", "churn: hard_frac -0.1 outside [0,1]"},
		{"rate=1000,hold=100,fbud=1.5", "churn: firm_budget 1.5 outside [0,1]"},
		{"rate=1000,hold=100,bbud=-1", "churn: be_budget -1 outside [0,1]"},
		{"rate=1000,hold=100,pmin=0,pmax=10", "churn: max_period_slots 10 below min_period_slots 50"},
		{"rate=1000,hold=100,pmin=100,pmax=10", "churn: max_period_slots 10 below min_period_slots 100"},
		{"rate=1000,hold=100,smax=200", "churn: max_msg_slots 200 exceeds min_period_slots 50 (message would not fit its deadline)"},
		{"rate=1000,hold=100,bogus=1", "churn: unknown key \"bogus\""},
		{"rate=notanumber,hold=100", "churn: rate: strconv.ParseFloat: parsing \"notanumber\": invalid syntax"},
		{"justtext", "churn: \"justtext\" is not key=value"},
		{"rate=1000,hold=100,pmin=x", "churn: pmin: strconv.Atoi: parsing \"x\": invalid syntax"},
		{"rate=1000,hold=100,seed=-1", "churn: seed: strconv.ParseUint: parsing \"-1\": invalid syntax"},
		{"rate", "churn: \"rate\" is not key=value"},
		{"hard=abc", "churn: hard: strconv.ParseFloat: parsing \"abc\": invalid syntax"},
	}
	for _, c := range bad {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", c.in)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("ParseSpec(%q) error:\n got %q\nwant %q", c.in, err, c.want)
		}
	}
}
