package kv

import (
	"errors"
	"strings"
	"testing"
)

// spec is a test spec with one field of every destination kind plus a
// repeatable custom key.
type spec struct {
	F    float64
	I    int
	I64  int64
	U64  uint64
	Tags []string
}

func (s *spec) fields() []Field {
	return []Field{
		{Key: "f", Dest: &s.F},
		{Key: "tag", Parse: func(v string) error {
			if v == "" {
				return errors.New("tag: empty")
			}
			s.Tags = append(s.Tags, v)
			return nil
		}, Format: func() []string { return s.Tags }},
		{Key: "i", Dest: &s.I},
		{Key: "i64", Dest: &s.I64},
		{Key: "u64", Dest: &s.U64},
	}
}

func TestParseFormat(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{" , ,", ""},
		{"f=0", ""},
		{"u64=7,i64=-3,i=2,f=0.5", "f=0.5,i=2,i64=-3,u64=7"},
		{"f=1,f=2.5e-1", "f=0.25"},
		{"tag=a,i=1,tag=b", "tag=a,tag=b,i=1"},
		{"u64=18446744073709551615", "u64=18446744073709551615"},
	} {
		var s spec
		if err := Parse("test", c.in, s.fields()); err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := Format(s.fields()); got != c.want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"f", `test: "f" is not key=value`},
		{"g=1", `test: unknown key "g"`},
		{"=1", `test: unknown key ""`},
		{" f = 1 ", `test: unknown key "f "`}, // only the field is trimmed
		{"f=x", `test: f: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"f=1e400", `test: f: strconv.ParseFloat: parsing "1e400": value out of range`},
		{"i=1.5", `test: i: strconv.Atoi: parsing "1.5": invalid syntax`},
		{"i64=x", `test: i64: strconv.ParseInt: parsing "x": invalid syntax`},
		{"u64=-1", `test: u64: strconv.ParseUint: parsing "-1": invalid syntax`},
		{"tag=", `test: tag: empty`},
		{"i=1,bogus", `test: "bogus" is not key=value`},
	} {
		var s spec
		err := Parse("test", c.in, s.fields())
		if err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) error = %v, want %q", c.in, err, c.want)
		}
	}
}

// Every float key rejects NaN and ±Inf: such values pass range checks
// written as comparisons and then poison the simulation clock.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "infinity"} {
		var s spec
		err := Parse("test", "f="+v, s.fields())
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("Parse(f=%s) error = %v, want a not-finite error", v, err)
		}
	}
}
