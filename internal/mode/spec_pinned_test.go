package mode

import "testing"

// TestParseSpecPinned pins ParseSpec's observable behaviour: the exact
// rendering of every accepted spec (trimming, skipped empty fields,
// last-wins scalar keys, render key order) and the exact error text of
// every rejected one.
func TestParseSpecPinned(t *testing.T) {
	valid := []struct{ in, want string }{
		{"", ""},
		{"window=512", "window=512"},
		{"window=256,dmiss=0.05,cmiss=0.25,dback=256,cback=1024,exit=0.5,cool=2,bcap=64", "window=256,dmiss=0.05,cmiss=0.25,dback=256,cback=1024,exit=0.5,cool=2,bcap=64"},
		{"dmiss=0.01,cool=3", "dmiss=0.01,cool=3"},
		{"bcap=8", "bcap=8"},
		{"bcap=8,cool=3", "cool=3,bcap=8"},
		{"window=1,exit=0.9", "window=1,exit=0.9"},
		{"cmiss=0", ""},
		{"dmiss=0", ""},
		{"window=128,dmiss=0.02,cmiss=0.5,dback=64,cback=256,cool=2", "window=128,dmiss=0.02,cmiss=0.5,dback=64,cback=256,cool=2"},
		{" window=256 ,, dmiss=0.05 ,bcap=64 ", "window=256,dmiss=0.05,bcap=64"},
		{"bcap=64,window=256", "window=256,bcap=64"},
		{"window=5,window=7", "window=7"},
		{"exit=0.0001,cool=0", "exit=0.0001"},
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
		{"window", "mode: \"window\" is not key=value"},
		{"window=x", "mode: window: strconv.ParseInt: parsing \"x\": invalid syntax"},
		{"window=nope", "mode: window: strconv.ParseInt: parsing \"nope\": invalid syntax"},
		{"dmiss=high", "mode: dmiss: strconv.ParseFloat: parsing \"high\": invalid syntax"},
		{"bogus=1", "mode: unknown key \"bogus\""},
		{"dmiss=-0.1", "mode: degrade_miss -0.1 outside (0,1]"},
		{"dmiss=2", "mode: degrade_miss 2 outside (0,1]"},
		{"dmiss=0.5,cmiss=0.1", "mode: critical_miss 0.1 outside [degrade_miss, 1]"},
		{"exit=1", "mode: exit_frac 1 outside (0,1) — exit must be strictly below entry for hysteresis"},
		{"cool=-1", "mode: cooldown_windows -1 must be at least 1"},
		{"bcap=-2", "mode: bridge_cap -2 negative"},
		{"bcap=A", "mode: bcap: strconv.Atoi: parsing \"A\": invalid syntax"},
		{"window=-5", "mode: window_slots -5 must be at least 1"},
		{"cback=1,dback=900", "mode: critical_backlog 1 below degrade_backlog 900"},
		{"window=1.5", "mode: window: strconv.ParseInt: parsing \"1.5\": invalid syntax"},
		{"\xf7,", "mode: \"\\xf7\" is not key=value"},
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
