// Package slotbench defines the shared steady-state slot-engine workload
// behind the repo's benchmark baseline: the zero-allocation tests and the
// ccr-bench -json report both run it, so the numbers in
// BENCH_slot_engine.json and the allocs/slot gate in CI measure the same
// thing.
//
// The workload is an 8-node ring where every node holds a permanent backlog
// of messages so large they never complete within any bench horizon. Every
// slot therefore exercises the full engine — collection sampling,
// arbitration with contention and spatial reuse, clock hand-over, grant
// execution and fragment delivery — without ever reaching the
// message-completion path, whose latency histograms retain samples and
// allocate by design. Steady-state slot cost is exactly what the baseline
// pins (DESIGN.md §9).
package slotbench

import (
	"fmt"
	"runtime"
	"time"

	"ccredf/internal/ccfpr"
	"ccredf/internal/core"
	"ccredf/internal/network"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/tdma"
	"ccredf/internal/timing"
)

const (
	// Nodes is the ring size of the baseline workload.
	Nodes = 8
	// WarmupSlots is how many slot periods New runs before handing the
	// network over: enough to grow every pooled structure (event free list,
	// delivery pool, arbiter scratch) to its steady-state size.
	WarmupSlots = 256
	// backlogSlots is a message size no bench horizon ever finishes.
	backlogSlots = 1 << 30
	// instrumentedBacklogSlots is the backlog size for the instrumented
	// engine: the data-channel verifier serialises every fragment, and the
	// wire format carries fragment indices and counts as uint16, so message
	// sizes must stay below 1<<16 for the packets to be well-formed. 60000
	// fragments still outlast every gate and bench horizon.
	instrumentedBacklogSlots = 60000
)

// Protocols lists the protocol configurations the baseline covers, in
// report order.
var Protocols = []string{"ccr-edf", "ccr-edf+secondary", "cc-fpr", "tdma"}

// config builds the protocol configuration for one replica on a ring of
// nodes. The seed feeds both Config.Seed (per-replica rng stream) and the
// workload variant below.
func config(name string, nodes int, seed uint64) (network.Config, error) {
	p := timing.DefaultParams(nodes)
	cfg := network.Config{Params: p, Seed: seed}
	switch name {
	case "ccr-edf", "ccr-edf+secondary":
		arb, err := core.NewArbiter(nodes, sched.Map5Bit, true)
		if err != nil {
			return network.Config{}, err
		}
		cfg.Protocol = arb
		cfg.SecondaryRequests = name == "ccr-edf+secondary"
	case "cc-fpr":
		arb, err := ccfpr.NewArbiter(nodes, true)
		if err != nil {
			return network.Config{}, err
		}
		cfg.Protocol = arb
	case "tdma":
		arb, err := tdma.NewArbiter(nodes, true)
		if err != nil {
			return network.Config{}, err
		}
		cfg.Protocol = arb
	default:
		return network.Config{}, fmt.Errorf("slotbench: unknown protocol %q", name)
	}
	return cfg, nil
}

// backlog submits the permanent workload of one replica: two backlog
// messages per node, one near and one far destination, with the push order
// alternating so ring-wide the queue heads mix short and long segments —
// arbitration sees contention, spatial reuse packs the short ones, and (with
// the extension) odd nodes advertise a shorter-segment secondary behind
// their far-destination head. The variant rotates the far destination so
// batch replicas offer different loads while staying fully contended.
func backlog(net *network.Network, nodes int, variant uint64, slots int) error {
	farOff := 2 + int(variant%5) // in [2, 6]: never the node itself or its near neighbour
	for i := 0; i < nodes; i++ {
		near, far := (i+1)%nodes, (i+farOff)%nodes
		first, second := near, far
		if i%2 == 1 {
			first, second = far, near
		}
		if _, err := net.SubmitMessage(sched.ClassBestEffort, i, ring.Node(first), slots, 0); err != nil {
			return err
		}
		if _, err := net.SubmitMessage(sched.ClassBestEffort, i, ring.Node(second), slots, 0); err != nil {
			return err
		}
	}
	return nil
}

// New builds a warmed-up network running the named protocol over the
// permanent-backlog workload. Valid names are listed in Protocols.
func New(name string) (*network.Network, error) {
	cfg, err := config(name, Nodes, 0)
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := backlog(net, Nodes, 2, backlogSlots); err != nil { // variant 2 ⇒ the original far = i+4
		return nil, err
	}
	net.RunSlots(WarmupSlots)
	return net, nil
}

// NewInstrumented builds the same warmed-up network as New, on a ring of
// nodes, with the full verification stack attached: control-channel codec
// round-tripping, data packet serialisation with CRC verification, and the
// DESIGN.md §6 protocol invariant checks, all running on every slot. The
// instrumented engine holds the same zero-allocation gate as the bare one —
// verification reuses persistent scratch instead of taxing the slot loop.
func NewInstrumented(name string, nodes int) (*network.Network, error) {
	cfg, err := config(name, nodes, 0)
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg)
	if err != nil {
		return nil, err
	}
	net.AttachWireCheck()
	net.AttachDataCheck()
	net.AttachInvariantChecker()
	if err := backlog(net, nodes, 2, instrumentedBacklogSlots); err != nil {
		return nil, err
	}
	net.RunSlots(WarmupSlots)
	if v := net.Metrics().WireErrors.Value(); v != 0 {
		return nil, fmt.Errorf("slotbench: %s instrumented warmup hit %d wire errors", name, v)
	}
	if v := net.Metrics().InvariantViolations.Value(); v != 0 {
		return nil, fmt.Errorf("slotbench: %s instrumented warmup hit %d invariant violations", name, v)
	}
	return net, nil
}

// NewBatch builds k warmed-up replicas of the named protocol as one batched
// engine. Replica j runs under seed j with the backlog's far destination
// rotated by the seed — same topology, different load, exactly the
// replica-sweep shape the batched engine amortizes.
func NewBatch(name string, k int) (*network.Batch, error) {
	if k < 1 {
		return nil, fmt.Errorf("slotbench: batch of %d replicas", k)
	}
	cfgs := make([]network.Config, k)
	for j := 0; j < k; j++ {
		cfg, err := config(name, Nodes, uint64(j))
		if err != nil {
			return nil, err
		}
		cfgs[j] = cfg
	}
	b, err := network.NewBatch(cfgs)
	if err != nil {
		return nil, err
	}
	for j := 0; j < k; j++ {
		if err := backlog(b.Net(j), Nodes, uint64(j), backlogSlots); err != nil {
			return nil, err
		}
	}
	b.RunSlots(WarmupSlots)
	return b, nil
}

// Stats is the measured steady-state cost of one protocol's slot engine.
// Slots is the count the engine actually executed — the RunSlots budget
// assumes worst-case hand-over gaps, so real gaps fit more slots into the
// same simulated wall, and the executed count differs per protocol (4376 vs
// 4334 under a 4096 budget, say). RequestedSlots records that budget so
// snapshots are self-describing and ns/slot comparisons across them stay
// apples-to-apples; per-slot figures always divide by the executed count.
type Stats struct {
	Protocol       string  `json:"protocol"`
	RequestedSlots int64   `json:"requested_slots"`
	Slots          int64   `json:"slots"`
	Replicas       int     `json:"replicas,omitempty"`
	NsPerSlot      float64 `json:"ns_per_slot"`
	AllocsPerSlot  float64 `json:"allocs_per_slot"`
	BytesPerSlot   float64 `json:"bytes_per_slot"`
}

// Measure runs the named protocol's warmed-up engine for at least the given
// number of slot periods and returns its per-slot cost, with allocations
// taken from runtime.MemStats deltas. Run it serially — concurrent
// allocating goroutines would be charged to the slot engine.
func Measure(name string, slots int64) (Stats, error) {
	net, err := New(name)
	if err != nil {
		return Stats{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := net.Metrics().Slots.Value()
	start := time.Now()
	net.RunSlots(slots)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	executed := net.Metrics().Slots.Value() - before
	if executed <= 0 {
		return Stats{}, fmt.Errorf("slotbench: %s executed no slots", name)
	}
	return Stats{
		Protocol:       name,
		RequestedSlots: slots,
		Slots:          executed,
		NsPerSlot:      float64(elapsed.Nanoseconds()) / float64(executed),
		AllocsPerSlot:  float64(m1.Mallocs-m0.Mallocs) / float64(executed),
		BytesPerSlot:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(executed),
	}, nil
}

// MeasureBatch runs k batched replicas of the named protocol for at least
// the given number of slot periods each and returns the *effective* per-slot
// cost: elapsed wall time and allocation deltas divided by the total slot
// count executed across all replicas. Run it serially, like Measure.
func MeasureBatch(name string, k int, slots int64) (Stats, error) {
	b, err := NewBatch(name, k)
	if err != nil {
		return Stats{}, err
	}
	before := int64(0)
	for j := 0; j < b.Len(); j++ {
		before += b.Net(j).Metrics().Slots.Value()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	b.RunSlots(slots)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	executed := -before
	for j := 0; j < b.Len(); j++ {
		executed += b.Net(j).Metrics().Slots.Value()
	}
	if executed <= 0 {
		return Stats{}, fmt.Errorf("slotbench: batched %s executed no slots", name)
	}
	return Stats{
		Protocol:       name,
		RequestedSlots: slots,
		Slots:          executed,
		Replicas:       k,
		NsPerSlot:      float64(elapsed.Nanoseconds()) / float64(executed),
		AllocsPerSlot:  float64(m1.Mallocs-m0.Mallocs) / float64(executed),
		BytesPerSlot:   float64(m1.TotalAlloc-m0.TotalAlloc) / float64(executed),
	}, nil
}
