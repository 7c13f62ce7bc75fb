package network

import (
	"fmt"
	"math/bits"

	"ccredf/internal/core"
	"ccredf/internal/obs"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
)

// invariantChecker verifies the protocol invariants of DESIGN.md §6 on every
// arbitration outcome. Violations are counted rather than panicking so an
// experiment run surfaces them in its metrics (tests assert the counter is
// zero).
type invariantChecker struct {
	r     ring.Ring
	proto core.Protocol
	m     *Metrics
}

// Kinds declares the one kind the checker reads (see wireChecker.Kinds).
func (c *invariantChecker) Kinds() obs.KindSet { return obs.KindsOf(obs.KindArbitration) }

func (c *invariantChecker) OnEvent(e *obs.Event) {
	if e.Kind != obs.KindArbitration {
		return
	}
	c.check(e.Slot, e.Requests, *e.Outcome)
}

// check verifies one arbitration outcome. The request slice may hold more
// than one entry per node when the secondary-request extension is active.
func (c *invariantChecker) check(slot int64, reqs []core.Request, out core.Outcome) {
	violate := func(format string, args ...any) {
		c.m.InvariantViolations.Inc()
		if len(c.m.Violations) < 8 {
			c.m.Violations = append(c.m.Violations,
				fmt.Sprintf("slot %d: %s", slot, fmt.Sprintf(format, args...)))
		}
	}

	if !c.r.Valid(out.Master) {
		violate("master %d outside ring", out.Master)
		return
	}

	// Per-node view of the (possibly multi-entry) request slice. A fixed
	// array replaces a per-round map (a NodeSet bounds the ring at 64
	// nodes); only indices with their `requested` bit set are meaningful.
	var requested ring.NodeSet
	var bestPrio [64]uint8
	for _, req := range reqs {
		if req.Empty() {
			continue
		}
		requested = requested.Add(req.Node)
		if req.Prio > bestPrio[req.Node] {
			bestPrio[req.Node] = req.Prio
		}
	}
	matches := func(g core.Grant) bool {
		for _, req := range reqs {
			if req.Node == g.Node && req.MsgID == g.MsgID && req.Dests == g.Dests {
				return true
			}
		}
		return false
	}

	// Invariant 1: grants are pairwise link-disjoint, at most one grant
	// per node, and every grant answers an actual request.
	var used ring.LinkSet
	var granted ring.NodeSet
	for _, g := range out.Grants {
		if granted.Contains(g.Node) {
			violate("node %d granted twice", g.Node)
		}
		granted = granted.Add(g.Node)
		if used.Overlaps(g.Links) {
			violate("grant for node %d overlaps earlier grants (links %v)", g.Node, g.Links.Links())
		}
		used = used.Union(g.Links)
		if !c.r.Valid(g.Node) || !requested.Contains(g.Node) {
			violate("grant for node %d without a request", g.Node)
			continue
		}
		if !matches(g) {
			violate("grant for node %d does not match any of its requests", g.Node)
		}
		// Invariant 2: the segment stays within the ring cut at the
		// master (may terminate at the break, never cross it).
		if c.r.Span(g.Node, g.Dests) > c.r.Nodes()-c.r.Dist(out.Master, g.Node) {
			violate("grant for node %d crosses the clock break at %d", g.Node, out.Master)
		}
	}

	// Invariant 3 (CCR-EDF only): the master holds the highest priority
	// among requesters and, when it requested, is granted. Baseline
	// protocols elect masters by rotation. In exact-EDF mode the arbiter
	// compares absolute deadlines, and per-node sampling times can give
	// the earliest-deadline node a lower *quantised* wire priority, so
	// there the check is class dominance only.
	if arb, isEDF := c.proto.(*core.Arbiter); isEDF && !requested.Empty() {
		if arb.Mode() == sched.Map5Bit {
			var max uint8
			for v := uint64(requested); v != 0; v &= v - 1 {
				if p := bestPrio[bits.TrailingZeros64(v)]; p > max {
					max = p
				}
			}
			if bestPrio[out.Master] < max {
				violate("master %d (prio %d) outranked (best prio %d)",
					out.Master, bestPrio[out.Master], max)
			}
		} else {
			var maxClass sched.Class
			for v := uint64(requested); v != 0; v &= v - 1 {
				if c := sched.PrioClass(bestPrio[bits.TrailingZeros64(v)]); c > maxClass {
					maxClass = c
				}
			}
			if sched.PrioClass(bestPrio[out.Master]) < maxClass {
				violate("master %d (class %v) outranked (best class %v)",
					out.Master, sched.PrioClass(bestPrio[out.Master]), maxClass)
			}
		}
		if requested.Contains(out.Master) && !granted.Contains(out.Master) {
			violate("requesting master %d not granted", out.Master)
		}
	}

	// Grant/deny partition per node: every requesting node is either
	// granted or denied, never both, never neither; idle nodes appear in
	// neither list.
	var denied ring.NodeSet
	for _, d := range out.Denied {
		if denied.Contains(d) {
			violate("node %d denied twice", d)
		}
		denied = denied.Add(d)
	}
	for node := 0; node < c.r.Nodes(); node++ {
		switch {
		case requested.Contains(node) && granted.Contains(node) == denied.Contains(node):
			violate("request of node %d neither granted nor denied (or both)", node)
		case !requested.Contains(node) && (granted.Contains(node) || denied.Contains(node)):
			violate("idle node %d appears in the outcome", node)
		}
	}
}
