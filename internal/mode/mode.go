// Package mode is the system-wide operating-mode subsystem: an explicit
// mode-change protocol with hysteresis, replacing implicit per-decision
// degradation under overload. A Controller watches the slot engine's miss
// ratio and backlog over a sliding window and drives a three-state machine —
// Normal, Degraded, Critical — with asymmetric thresholds: entry happens as
// soon as one window sustains an entry threshold, exit only after a
// configurable cool-down of consecutive windows below a strictly lower exit
// threshold. The asymmetry is what prevents flapping: a workload oscillating
// around an entry threshold changes mode at most once per cool-down period,
// never once per window.
//
// The modes gate criticality-aware behaviour elsewhere (internal/network):
// Degraded gates new firm admissions, Critical additionally sheds best-effort
// traffic at the queue. Hard-class connections are never gated and never shed
// in any mode — the mode protocol exists to protect them.
package mode

import (
	"fmt"

	"ccredf/internal/kv"
)

// Mode is one operating mode. Ordering is meaningful: higher is more
// degraded, and the state machine escalates directly but de-escalates one
// level at a time.
type Mode uint8

const (
	// Normal is full service: every criticality level admitted and served.
	Normal Mode = iota
	// Degraded gates new firm admissions; existing traffic is untouched.
	Degraded
	// Critical additionally gates best-effort admissions and sheds queued
	// best-effort traffic at release time.
	Critical

	// NumModes sizes per-mode arrays.
	NumModes
)

var modeNames = [NumModes]string{Normal: "normal", Degraded: "degraded", Critical: "critical"}

// String returns the mode's wire name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Spec configures the hysteresis controller. The zero value is "no mode
// protocol"; Normalised fills defaults for unset fields.
type Spec struct {
	// WindowSlots is the sliding-window length in slots: miss ratio and
	// backlog are evaluated once per window.
	WindowSlots int64 `json:"window_slots,omitempty"`
	// DegradeMiss and CriticalMiss are the window miss-ratio entry thresholds
	// for Degraded and Critical.
	DegradeMiss  float64 `json:"degrade_miss,omitempty"`
	CriticalMiss float64 `json:"critical_miss,omitempty"`
	// DegradeBacklog and CriticalBacklog are the queued-message entry
	// thresholds (total queue depth at the window boundary).
	DegradeBacklog  int `json:"degrade_backlog,omitempty"`
	CriticalBacklog int `json:"critical_backlog,omitempty"`
	// ExitFrac scales the current mode's entry thresholds down to its exit
	// thresholds: a window is "clean" when both signals are strictly below
	// ExitFrac times the entry threshold.
	ExitFrac float64 `json:"exit_frac,omitempty"`
	// CooldownWindows is how many consecutive clean windows de-escalation
	// requires (one level per cool-down).
	CooldownWindows int `json:"cooldown_windows,omitempty"`
	// BridgeCap is the per-bridge relay-queue capacity enabling EDF-aware
	// backpressure on multi-ring topologies (0 leaves only the hard safety
	// cap; see sched.BridgeQueue).
	BridgeCap int `json:"bridge_cap,omitempty"`
}

// Defaults, applied by Normalised to unset (zero) fields. BridgeCap has no
// default: backpressure is opt-in per spec.
const (
	defaultWindow       = 256
	defaultDegradeMiss  = 0.05
	defaultCriticalMiss = 0.25
	defaultDegradeBack  = 256
	defaultCriticalBack = 1024
	defaultExitFrac     = 0.5
	defaultCooldown     = 2
)

// Normalised returns s with defaults filled in for unset fields.
func (s Spec) Normalised() Spec {
	if s.WindowSlots == 0 {
		s.WindowSlots = defaultWindow
	}
	if s.DegradeMiss == 0 {
		s.DegradeMiss = defaultDegradeMiss
	}
	if s.CriticalMiss == 0 {
		s.CriticalMiss = defaultCriticalMiss
	}
	if s.DegradeBacklog == 0 {
		s.DegradeBacklog = defaultDegradeBack
	}
	if s.CriticalBacklog == 0 {
		s.CriticalBacklog = defaultCriticalBack
	}
	if s.ExitFrac == 0 {
		s.ExitFrac = defaultExitFrac
	}
	if s.CooldownWindows == 0 {
		s.CooldownWindows = defaultCooldown
	}
	return s
}

// Validate checks the normalised spec, returning field-qualified errors.
func (s Spec) Validate() error {
	switch {
	case s.WindowSlots < 1:
		return fmt.Errorf("mode: window_slots %d must be at least 1", s.WindowSlots)
	case !(s.DegradeMiss > 0 && s.DegradeMiss <= 1):
		return fmt.Errorf("mode: degrade_miss %v outside (0,1]", s.DegradeMiss)
	case !(s.CriticalMiss >= s.DegradeMiss && s.CriticalMiss <= 1):
		return fmt.Errorf("mode: critical_miss %v outside [degrade_miss, 1]", s.CriticalMiss)
	case s.DegradeBacklog < 1:
		return fmt.Errorf("mode: degrade_backlog %d must be at least 1", s.DegradeBacklog)
	case s.CriticalBacklog < s.DegradeBacklog:
		return fmt.Errorf("mode: critical_backlog %d below degrade_backlog %d",
			s.CriticalBacklog, s.DegradeBacklog)
	case !(s.ExitFrac > 0 && s.ExitFrac < 1):
		return fmt.Errorf("mode: exit_frac %v outside (0,1) — exit must be strictly below entry for hysteresis", s.ExitFrac)
	case s.CooldownWindows < 1:
		return fmt.Errorf("mode: cooldown_windows %d must be at least 1", s.CooldownWindows)
	case s.BridgeCap < 0:
		return fmt.Errorf("mode: bridge_cap %d negative", s.BridgeCap)
	}
	return nil
}

// ParseSpec parses the compact command-line mode specification used by the
// -mode flags of ccr-sim and ccr-sweep (syntax: DESIGN.md §17):
//
//	window=256,dmiss=0.05,cmiss=0.25,dback=256,cback=1024,exit=0.5,cool=2,bcap=64
//
// window is the sliding-window length in slots; dmiss/cmiss the Degraded and
// Critical miss-ratio entry thresholds; dback/cback the backlog entry
// thresholds; exit the exit-threshold fraction; cool the cool-down in
// windows; bcap the per-bridge queue capacity for backpressure. Omitted keys
// take the package defaults. The empty string parses to the zero ("mode
// protocol off") spec.
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	if err := kv.Parse("mode", spec, s.fields()); err != nil {
		return Spec{}, err
	}
	if err := s.Normalised().Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String renders the spec back into ParseSpec's format (a round-trip inverse
// for well-formed specs; zero fields are omitted). The zero spec renders "".
func (s Spec) String() string { return kv.Format(s.fields()) }

// fields is the spec syntax: keys in render order, bound to s.
func (s *Spec) fields() []kv.Field {
	return []kv.Field{
		{Key: "window", Dest: &s.WindowSlots},
		{Key: "dmiss", Dest: &s.DegradeMiss},
		{Key: "cmiss", Dest: &s.CriticalMiss},
		{Key: "dback", Dest: &s.DegradeBacklog},
		{Key: "cback", Dest: &s.CriticalBacklog},
		{Key: "exit", Dest: &s.ExitFrac},
		{Key: "cool", Dest: &s.CooldownWindows},
		{Key: "bcap", Dest: &s.BridgeCap},
	}
}

// Transition records one mode change.
type Transition struct {
	From, To Mode
	// Slot is the slot at whose boundary the transition fired.
	Slot int64
}

// Controller is the hysteresis state machine. It is fed from the slot loop —
// EndSlot once per slot (allocation-free counter bump), Evaluate at each
// window boundary with the engine's cumulative miss/completion totals and
// current backlog — and exposes the current mode for the admission and
// shedding hooks to consult. Deterministic: the trajectory is a pure function
// of the window statistics sequence.
type Controller struct {
	spec Spec

	cur   Mode
	slots int64 // slots since the last window boundary

	// lastMissed/lastDone remember the cumulative totals at the previous
	// boundary, so Evaluate works on per-window deltas.
	lastMissed, lastDone int64

	// clean counts consecutive windows below the current mode's exit
	// thresholds; de-escalation requires CooldownWindows of them.
	clean int

	transitions int64
	entries     [NumModes]int64
}

// New builds a controller from a spec (normalised and validated internally).
func New(spec Spec) (*Controller, error) {
	s := spec.Normalised()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Controller{spec: s}, nil
}

// Spec returns the normalised spec the controller runs.
func (c *Controller) Spec() Spec { return c.spec }

// Mode returns the current operating mode.
func (c *Controller) Mode() Mode { return c.cur }

// Transitions returns the total number of mode changes so far.
func (c *Controller) Transitions() int64 { return c.transitions }

// Entries returns how many times mode m has been entered (the initial Normal
// state does not count as an entry).
func (c *Controller) Entries(m Mode) int64 { return c.entries[m] }

// EndSlot advances the slot counter and reports whether a window boundary was
// crossed — the caller must then call Evaluate exactly once. Split from
// Evaluate so the per-slot cost is one increment and one compare, with the
// backlog scan deferred to window boundaries.
func (c *Controller) EndSlot() bool {
	c.slots++
	if c.slots < c.spec.WindowSlots {
		return false
	}
	c.slots = 0
	return true
}

// entryFor classifies one window against the entry thresholds: the most
// degraded mode the window's signals justify entering.
func (c *Controller) entryFor(ratio float64, backlog int) Mode {
	switch {
	case ratio >= c.spec.CriticalMiss || backlog >= c.spec.CriticalBacklog:
		return Critical
	case ratio >= c.spec.DegradeMiss || backlog >= c.spec.DegradeBacklog:
		return Degraded
	default:
		return Normal
	}
}

// cleanFor reports whether the window is below the exit thresholds of the
// current mode: strictly under ExitFrac times the thresholds that would
// (re-)enter it.
func (c *Controller) cleanFor(ratio float64, backlog int) bool {
	entryMiss, entryBack := c.spec.DegradeMiss, c.spec.DegradeBacklog
	if c.cur == Critical {
		entryMiss, entryBack = c.spec.CriticalMiss, c.spec.CriticalBacklog
	}
	return ratio < c.spec.ExitFrac*entryMiss && float64(backlog) < c.spec.ExitFrac*float64(entryBack)
}

// Evaluate closes one window at the given slot: missed and done are the
// engine's *cumulative* deadline-miss and completion totals (Evaluate works
// on the deltas since the previous boundary), backlog the current total queue
// depth. It returns the transition taken, if any. At most one transition
// fires per window — escalation jumps directly to the justified mode, and
// de-escalation steps down exactly one level after CooldownWindows
// consecutive clean windows — so transitions are monotone within a window and
// their count is bounded by the window count.
func (c *Controller) Evaluate(slot, missed, done int64, backlog int) (Transition, bool) {
	dm, dd := missed-c.lastMissed, done-c.lastDone
	c.lastMissed, c.lastDone = missed, done
	var ratio float64
	if dd > 0 {
		ratio = float64(dm) / float64(dd)
	} else if dm > 0 {
		ratio = 1
	}

	target := c.entryFor(ratio, backlog)
	if target > c.cur {
		// Escalate immediately: sustained overload must not wait out a
		// cool-down. Jumping Normal→Critical is allowed and still a single
		// transition.
		tr := Transition{From: c.cur, To: target, Slot: slot}
		c.cur = target
		c.clean = 0
		c.transitions++
		c.entries[target]++
		return tr, true
	}
	if c.cur == Normal {
		return Transition{}, false
	}
	if !c.cleanFor(ratio, backlog) {
		c.clean = 0
		return Transition{}, false
	}
	c.clean++
	if c.clean < c.spec.CooldownWindows {
		return Transition{}, false
	}
	// Cool-down complete: step down one level. Critical relaxes to Degraded
	// first and must earn a fresh cool-down against Degraded's exit
	// thresholds before reaching Normal.
	tr := Transition{From: c.cur, To: c.cur - 1, Slot: slot}
	c.cur--
	c.clean = 0
	c.transitions++
	c.entries[c.cur]++
	return tr, true
}
