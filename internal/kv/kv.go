// Package kv is the codec of the compact run-time knob specs —
// "coll=0.01,crash=3@100+50", "rate=50000,hold=2000", "window=256,bcap=64" —
// that the fault, churn and mode packages accept on the command line and in
// sweep specs. Each package describes its syntax once, as a table of Fields
// pointing into the spec it fills; Parse and Format drive both directions
// from that table, so parsing, rendering and error text are the same for
// every knob (DESIGN.md §17).
package kv

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Field binds one key to its value in the spec being parsed or rendered.
type Field struct {
	// Key is the name before '='.
	Key string
	// Dest points at the value: *float64, *int, *int64 or *uint64. A
	// scalar key may repeat; the last occurrence wins.
	Dest any
	// Parse and Format replace Dest for a repeatable structured key: Parse
	// is called once per occurrence (and usually appends), Format returns
	// one value per occurrence. A Parse error is reported as
	// "domain: err", so it should name what it rejects.
	Parse  func(val string) error
	Format func() []string
}

// Parse decodes spec, a comma-separated list of key=value fields, into
// fields. Fields are trimmed and empty ones skipped, so "" and " , " set
// nothing. Floats must be finite. Errors are prefixed with domain:
// "domain: key: cause", "domain: unknown key \"k\"" or
// "domain: \"f\" is not key=value". On error the destinations may be
// partly written.
func Parse(domain, spec string, fields []Field) error {
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("%s: %q is not key=value", domain, field)
		}
		i := slices.IndexFunc(fields, func(f Field) bool { return f.Key == key })
		if i < 0 {
			return fmt.Errorf("%s: unknown key %q", domain, key)
		}
		f := fields[i]
		if f.Parse != nil {
			if err := f.Parse(val); err != nil {
				return fmt.Errorf("%s: %v", domain, err)
			}
			continue
		}
		if err := set(f.Dest, val); err != nil {
			return fmt.Errorf("%s: %s: %v", domain, key, err)
		}
	}
	return nil
}

// set parses val into dest; on error dest may hold a partial value.
func set(dest any, val string) (err error) {
	switch d := dest.(type) {
	case *float64:
		if *d, err = strconv.ParseFloat(val, 64); err == nil && (math.IsNaN(*d) || math.IsInf(*d, 0)) {
			err = fmt.Errorf("%v is not finite", *d)
		}
	case *int:
		*d, err = strconv.Atoi(val)
	case *int64:
		*d, err = strconv.ParseInt(val, 10, 64)
	case *uint64:
		*d, err = strconv.ParseUint(val, 10, 64)
	default:
		panic(fmt.Sprintf("kv: unsupported destination %T", dest))
	}
	return err
}

// Format renders fields in table order as Parse's input, omitting zero
// values; a spec with every field zero renders "". For well-formed specs
// Parse(Format(fields)) restores the same values.
func Format(fields []Field) string {
	var parts []string
	for _, f := range fields {
		if f.Format != nil {
			for _, v := range f.Format() {
				parts = append(parts, f.Key+"="+v)
			}
			continue
		}
		if v := format(f.Dest); v != "" {
			parts = append(parts, f.Key+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

// format renders one destination, "" for zero.
func format(dest any) string {
	switch d := dest.(type) {
	case *float64:
		if *d != 0 {
			return strconv.FormatFloat(*d, 'g', -1, 64)
		}
	case *int:
		if *d != 0 {
			return strconv.Itoa(*d)
		}
	case *int64:
		if *d != 0 {
			return strconv.FormatInt(*d, 10)
		}
	case *uint64:
		if *d != 0 {
			return strconv.FormatUint(*d, 10)
		}
	default:
		panic(fmt.Sprintf("kv: unsupported destination %T", dest))
	}
	return ""
}
