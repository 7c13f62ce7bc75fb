package fault

import "testing"

// TestParseSpecPinned pins ParseSpec's observable behaviour: the exact
// rendering of every accepted spec (trimming, skipped empty fields,
// last-wins scalar keys, render key order) and the exact error text of
// every rejected one.
func TestParseSpecPinned(t *testing.T) {
	valid := []struct{ in, want string }{
		{"", ""},
		{"coll=0.01", "coll=0.01"},
		{"coll=1", "coll=1"},
		{"coll=0", ""},
		{"crash=0@1", "crash=0@1"},
		{"crash=3@100+50,crash=3@200+10", "crash=3@100+50,crash=3@200+10"},
		{"coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,seed=9", "coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,seed=9"},
		{"coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,crash=5@400,seed=9", "coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,crash=5@400,seed=9"},
		{" coll=0.02 , crash=2@100+200 ,, seed=5 ", "coll=0.02,crash=2@100+200,seed=5"},
		{"coll=0.1,coll=0.2", "coll=0.2"},
		{"seed=5,crash=1@7,ho=1e-3,dist=2.5e-1", "dist=0.25,ho=0.001,crash=1@7,seed=5"},
		{"dist=0.5,seed=18446744073709551615", "dist=0.5,seed=18446744073709551615"},
		{"coll=0.02,crash=2@100+200,seed=5", "coll=0.02,crash=2@100+200,seed=5"},
	}
	for _, c := range valid {
		s, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := s.Spec(); got != c.want {
			t.Errorf("ParseSpec(%q).Spec() = %q, want %q", c.in, got, c.want)
		}
	}
	bad := []struct{ in, want string }{
		{"bogus", "fault: \"bogus\" is not key=value"},
		{"unknown=1", "fault: unknown key \"unknown\""},
		{"coll=abc", "fault: coll: strconv.ParseFloat: parsing \"abc\": invalid syntax"},
		{"coll=1.5", "fault: collection_drop_prob 1.5 outside [0,1]"},
		{"coll=two", "fault: coll: strconv.ParseFloat: parsing \"two\": invalid syntax"},
		{"ho=nope", "fault: ho: strconv.ParseFloat: parsing \"nope\": invalid syntax"},
		{"dist=-0.1", "fault: distribution_drop_prob -0.1 outside [0,1]"},
		{"crash=3", "fault: crash \"3\" is not NODE@AT[+DURATION]"},
		{"crash=3@0", "fault: crashes[0].at_slot 0 not positive"},
		{"crash=x@10", "fault: crash node: strconv.Atoi: parsing \"x\": invalid syntax"},
		{"crash=3@x", "fault: crash slot: strconv.ParseInt: parsing \"x\": invalid syntax"},
		{"crash=3@10+0", "fault: crash duration 0 not positive"},
		{"crash=3@10+-5", "fault: crash duration -5 not positive"},
		{"crash=3@10+y", "fault: crash duration: strconv.ParseInt: parsing \"y\": invalid syntax"},
		{"crash=@", "fault: crash node: strconv.Atoi: parsing \"\": invalid syntax"},
		{"crash=-1@10", "fault: crashes[0].node -1 negative"},
		{"crash=0@1,crash=0@500+100,crash=7@9", "fault: crashes: node 0 crashes at slot 500 after a permanent crash at slot 1"},
		{"seed=-1", "fault: seed: strconv.ParseUint: parsing \"-1\": invalid syntax"},
		{"seed=1.5", "fault: seed: strconv.ParseUint: parsing \"1.5\": invalid syntax"},
		{"=1", "fault: unknown key \"\""},
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
