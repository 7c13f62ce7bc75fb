package fault

import (
	"fmt"
	"strconv"
	"strings"

	"ccredf/internal/kv"
)

// ParseSpec parses the compact command-line fault specification used by the
// -faults flags of ccr-sim and ccr-sweep (syntax: DESIGN.md §17):
//
//	coll=0.01,dist=0.02,ho=0.005,crash=3@100+50,seed=9
//
// Keys: coll / dist / ho set the per-slot drop and handover-failure
// probabilities; seed sets the injector seed; crash=NODE@AT[+DURATION] (which
// may repeat) crashes NODE at slot AT, restarting DURATION slots later
// (omitted = never). The empty string parses to the zero plan.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	if err := kv.Parse("fault", spec, p.fields()); err != nil {
		return Plan{}, err
	}
	if err := p.Validate(0); err != nil {
		return Plan{}, fmt.Errorf("fault: %w", err)
	}
	return p, nil
}

// Spec renders the plan back into ParseSpec's format. For a plan ParseSpec
// accepted, ParseSpec(p.Spec()) returns an equal plan.
func (p Plan) Spec() string { return kv.Format(p.fields()) }

// fields is the spec syntax: keys in render order, bound to p.
func (p *Plan) fields() []kv.Field {
	return []kv.Field{
		{Key: "coll", Dest: &p.CollectionDropProb},
		{Key: "dist", Dest: &p.DistributionDropProb},
		{Key: "ho", Dest: &p.HandoverFailProb},
		{Key: "crash", Parse: p.parseCrash, Format: p.formatCrashes},
		{Key: "seed", Dest: &p.Seed},
	}
}

// parseCrash appends one NODE@AT[+DURATION] crash.
func (p *Plan) parseCrash(val string) error {
	nodeStr, rest, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("crash %q is not NODE@AT[+DURATION]", val)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return fmt.Errorf("crash node: %v", err)
	}
	atStr, durStr, hasDur := strings.Cut(rest, "+")
	at, err := strconv.ParseInt(atStr, 10, 64)
	if err != nil {
		return fmt.Errorf("crash slot: %v", err)
	}
	c := Crash{Node: node, At: at}
	if hasDur {
		dur, err := strconv.ParseInt(durStr, 10, 64)
		if err != nil {
			return fmt.Errorf("crash duration: %v", err)
		}
		if dur <= 0 {
			return fmt.Errorf("crash duration %d not positive", dur)
		}
		c.Restart = at + dur
	}
	p.Crashes = append(p.Crashes, c)
	return nil
}

// formatCrashes renders each crash as NODE@AT[+DURATION].
func (p *Plan) formatCrashes() []string {
	out := make([]string, len(p.Crashes))
	for i, c := range p.Crashes {
		out[i] = fmt.Sprintf("%d@%d", c.Node, c.At)
		if c.Restart != 0 {
			out[i] += fmt.Sprintf("+%d", c.Restart-c.At)
		}
	}
	return out
}
