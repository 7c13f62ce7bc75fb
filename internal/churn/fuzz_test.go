package churn

import "testing"

// FuzzChurnSpec checks ParseSpec never panics, and that every accepted spec
// both validates after normalisation and survives a String round-trip.
func FuzzChurnSpec(f *testing.F) {
	f.Add("")
	f.Add("rate=50000,hold=2000,hard=0.2,firm=0.4,fbud=0.5,bbud=0.3,pmin=50,pmax=400,smax=2,seed=9")
	f.Add("rate=200000,hold=1500,seed=5")
	f.Add("rate=1e9,hold=1e9")
	f.Add("rate=50000,hold=nan")
	f.Add("rate=1e12,hold=2000")
	f.Add("rate=0")
	f.Add("bogus=1")
	f.Add(",,,")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if s != (Spec{}) {
			if err := s.Normalised().Validate(); err != nil {
				t.Fatalf("accepted spec %q fails validation: %v", in, err)
			}
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("String() of accepted spec %q does not re-parse: %v", in, err)
		}
		if back != s {
			t.Fatalf("round trip of %q: %+v != %+v", in, back, s)
		}
	})
}
