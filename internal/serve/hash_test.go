package serve

import (
	"strings"
	"testing"

	"ccredf/scenario"
)

// Golden content-address keys. These pin the full canonicalisation pipeline
// — normalisation defaults, canonical JSON, EngineVersion — for a canonical
// single-ring spec, a multi-ring spec, a scenario, and a sweep spec and a
// scenario that set every run-time knob. If any changes,
// every deployed cache, journal and cluster ring placement silently
// invalidates, so a failure here must be a deliberate engine-version bump:
// update EngineVersion and re-pin, never just re-pin.
const (
	goldenSingleRingSweepKey = "1eb4bdc042fe9cc0354472f0d792c60dc6d6f51146545478a05e260251e3a477"
	goldenMultiRingSweepKey  = "9e5ddab6d3b70706540c5c75dec92ed51c2759ee774cf69c05816ff321f4f619"
	goldenScenarioKey        = "44cc069e8d89867b2650c98835d528f1f1bb68e4091f80e529496230daecdf95"
	goldenKnobSweepKey       = "b661c23bd38d8b628e83812668e00c81e5a2b6baf85de0017643a3dcdef28523"
	goldenKnobScenarioKey    = "3bec19ea8a3e1b984da291cc4e3df44246f8027744be3c91684ecf3c477fd7fb"
)

// goldenSingleRingSpec is the canonical one-ring sweep: every axis at its
// documented default, spelled explicitly.
func goldenSingleRingSpec() *SweepSpec {
	return &SweepSpec{
		Protocols:    []string{"ccr-edf"},
		Nodes:        []int{8},
		Loads:        []float64{0.5},
		Localities:   []string{"uniform"},
		Seeds:        []uint64{1},
		HorizonSlots: 10000,
	}
}

func TestSweepKeyGoldenSingleRing(t *testing.T) {
	key, err := SweepKey(goldenSingleRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenSingleRingSweepKey {
		t.Fatalf("single-ring sweep key changed:\n got %s\nwant %s\nThis invalidates every cache, journal and cluster placement; if intentional, bump EngineVersion and re-pin.", key, goldenSingleRingSweepKey)
	}
	// The implicit spelling (empty axes → defaults) must share the line.
	implicit, err := SweepKey(&SweepSpec{HorizonSlots: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if implicit != key {
		t.Fatalf("implicit-default spec got %s, want the canonical key %s", implicit, key)
	}
	// Rings:1 is the single-ring default and must share it too.
	one := goldenSingleRingSpec()
	one.Rings = 1
	if k, _ := SweepKey(one); k != key {
		t.Fatalf("rings:1 spec got %s, want the single-ring key %s", k, key)
	}
	// Workers never affects results, so it must not affect the key.
	w := goldenSingleRingSpec()
	w.Workers = 7
	if k, _ := SweepKey(w); k != key {
		t.Fatalf("workers changed the key: %s vs %s", k, key)
	}
}

func TestSweepKeyGoldenMultiRing(t *testing.T) {
	sp := goldenSingleRingSpec()
	sp.Rings = 3
	key, err := SweepKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenMultiRingSweepKey {
		t.Fatalf("multi-ring sweep key changed:\n got %s\nwant %s\nThis invalidates every cache, journal and cluster placement; if intentional, bump EngineVersion and re-pin.", key, goldenMultiRingSweepKey)
	}
	if key == goldenSingleRingSweepKey {
		t.Fatal("multi-ring spec shares the single-ring key; rings is not in the canonical form")
	}
}

func TestScenarioKeyGolden(t *testing.T) {
	scen, err := scenario.Load(strings.NewReader(`{
		"nodes": 8,
		"seed": 1,
		"horizon_slots": 10000,
		"connections": [
			{"src": 0, "dests": [4], "period_slots": 10, "slots": 1}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	key, err := ScenarioKey(scen)
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenScenarioKey {
		t.Fatalf("scenario key changed:\n got %s\nwant %s\nThis invalidates every cache, journal and cluster placement; if intentional, bump EngineVersion and re-pin.", key, goldenScenarioKey)
	}
}

// TestSweepKeyGoldenKnobs pins a key whose preimage carries every run-time
// knob — faults, churn, mode — on a multi-ring spec, so the knob fields'
// names, order and spelling in the canonical form cannot drift.
func TestSweepKeyGoldenKnobs(t *testing.T) {
	sp := goldenSingleRingSpec()
	sp.Faults = "coll=0.02,crash=2@100+200,seed=5"
	sp.Churn = "rate=50000,hold=2000"
	sp.Mode = "window=256,dmiss=0.05,bcap=64"
	sp.Rings = 3
	key, err := SweepKey(sp)
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenKnobSweepKey {
		t.Fatalf("knob-bearing sweep key changed:\n got %s\nwant %s\nThis invalidates every cache, journal and cluster placement; if intentional, bump EngineVersion and re-pin.", key, goldenKnobSweepKey)
	}
}

// TestScenarioKeyGoldenKnobs pins a scenario key with faults, churn and
// mode stanzas.
func TestScenarioKeyGoldenKnobs(t *testing.T) {
	scen, err := scenario.Load(strings.NewReader(`{
		"nodes": 8,
		"seed": 1,
		"horizon_slots": 10000,
		"connections": [
			{"src": 0, "dests": [4], "period_slots": 10, "slots": 1}
		],
		"faults": {"seed": 5, "collection_drop_prob": 0.02, "crashes": [{"node": 2, "at_slot": 100, "restart_slot": 300}]},
		"churn": {"rate_per_sec": 50000, "mean_hold_us": 2000, "seed": 9},
		"mode": {"window_slots": 256, "degrade_miss": 0.05, "bridge_cap": 64}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	key, err := ScenarioKey(scen)
	if err != nil {
		t.Fatal(err)
	}
	if key != goldenKnobScenarioKey {
		t.Fatalf("knob-bearing scenario key changed:\n got %s\nwant %s\nThis invalidates every cache, journal and cluster placement; if intentional, bump EngineVersion and re-pin.", key, goldenKnobScenarioKey)
	}
}

func TestKeysEmbedEngineVersion(t *testing.T) {
	// The engine version participates in every key (the cluster's
	// mixed-version guard); this documents the coupling without pinning the
	// hash preimage layout.
	if EngineVersion == "" {
		t.Fatal("EngineVersion is empty")
	}
	if len(goldenSingleRingSweepKey) != 64 || len(goldenScenarioKey) != 64 {
		t.Fatal("golden keys are not 64-hex sha256 strings")
	}
}
