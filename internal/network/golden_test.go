package network

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ccredf/internal/core"
	"ccredf/internal/ring"
	"ccredf/internal/sched"
	"ccredf/internal/timing"
	"ccredf/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden protocol trace")

// goldenScenario runs the canonical 5-node scenario (the Figure 2 pair plus
// a periodic connection and a loss) and returns its full text trace.
func goldenScenario(t *testing.T) []byte {
	t.Helper()
	p := timing.DefaultParams(5)
	arb, err := core.NewArbiter(5, sched.Map5Bit, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	net, err := New(Config{
		Params: p, Protocol: arb,
		LossProb: 0.05, Reliable: true, Seed: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.AttachWireCheck()
	net.AttachInvariantChecker()
	net.AttachTracer(tr)
	if _, err := net.SubmitMessage(sched.ClassRealTime, 0, ring.Node(2), 1, 50*p.SlotTime()); err != nil {
		t.Fatal(err)
	}
	if _, err := net.SubmitMessage(sched.ClassRealTime, 3, ring.NodeSetOf(4, 0), 1, 80*p.SlotTime()); err != nil {
		t.Fatal(err)
	}
	if _, err := net.OpenConnection(sched.Connection{
		Src: 1, Dests: ring.Node(3), Period: 7 * p.SlotTime(), Slots: 2,
	}); err != nil {
		t.Fatal(err)
	}
	net.RunSlots(30)
	if v := net.Metrics().InvariantViolations.Value(); v != 0 {
		t.Fatalf("golden scenario has invariant violations: %v", net.Metrics().Violations)
	}
	var text, gantt bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	text.WriteString("--- gantt ---\n")
	if err := tr.Gantt(&gantt, 5); err != nil {
		t.Fatal(err)
	}
	text.Write(gantt.Bytes())
	return text.Bytes()
}

// TestGoldenTrace pins the protocol's slot-by-slot behaviour: any change to
// arbitration order, timing, hand-over gaps or fault handling shows up as a
// diff against testdata/golden_trace.txt. Regenerate deliberately with
// `go test ./internal/network -run Golden -update-golden`.
func TestGoldenTrace(t *testing.T) {
	compareGolden(t, "golden_trace.txt", goldenScenario(t))
}

// compareGolden checks got against testdata/name, or rewrites the file under
// -update-golden, failing at the first differing line.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n got: %s\nwant: %s",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length changed: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestGoldenScenarioDeterminism double-checks the scenario is bit-stable
// within a single build (the precondition for the golden file).
func TestGoldenScenarioDeterminism(t *testing.T) {
	a := goldenScenario(t)
	b := goldenScenario(t)
	if !bytes.Equal(a, b) {
		t.Fatal("golden scenario is not deterministic")
	}
}
