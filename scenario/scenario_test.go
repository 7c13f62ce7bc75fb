package scenario

import (
	"strings"
	"testing"

	"ccredf"
)

const sample = `{
  "nodes": 8,
  "protocol": "ccr-edf",
  "exact_edf": true,
  "horizon_slots": 2000,
  "connections": [
    {"src": 0, "dests": [4], "period_slots": 10, "slots": 1},
    {"src": 2, "dests": [5, 7], "period_slots": 40, "slots": 2, "deadline_slots": 20}
  ],
  "poisson": [
    {"node": 3, "class": "be", "mean_interarrival_slots": 25, "slots": 1, "rel_deadline_slots": 200, "dest": "local"}
  ],
  "bursty": [
    {"node": 6, "burst_interarrival_slots": 2, "mean_burst_len": 4, "mean_idle_slots": 100, "slots": 1}
  ],
  "video": [
    {"node": 1, "dest": 5, "frame_interval_slots": 100, "gop": [6, 2, 2], "guaranteed": true}
  ]
}`

func TestLoadAndBuildAndRun(t *testing.T) {
	s, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Connections) != 3 { // 2 explicit + 1 guaranteed video
		t.Fatalf("opened %d connections", len(res.Connections))
	}
	res.Net.Run(res.Horizon)
	m := res.Net.Metrics()
	if m.MessagesDelivered.Value() < 200 {
		t.Fatalf("delivered only %d", m.MessagesDelivered.Value())
	}
	if m.UserDeadlineMisses.Value() != 0 {
		t.Fatalf("user misses: %d", m.UserDeadlineMisses.Value())
	}
	// The constrained-deadline connection carried traffic.
	cs, ok := res.Net.ConnStats(res.Connections[1].ID)
	if !ok || cs.Delivered == 0 {
		t.Fatal("constrained connection idle")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"nodes": 8, "horizon_slots": 10, "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestLoadRejectsBadJSON(t *testing.T) {
	if _, err := Load(strings.NewReader(`{`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []string{
		`{"nodes": 1, "horizon_slots": 10}`,
		`{"nodes": 8, "horizon_slots": 0}`,
		`{"nodes": 8, "horizon_slots": 10, "protocol": "token-ring"}`,
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":0,"dests":[],"period_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":0,"dests":[1],"period_slots":0,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "poisson": [{"node":0,"mean_interarrival_slots":0,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "poisson": [{"node":0,"mean_interarrival_slots":5,"slots":1,"class":"rt"}]}`,
		`{"nodes": 8, "horizon_slots": 10, "poisson": [{"node":0,"mean_interarrival_slots":5,"slots":1,"dest":"random"}]}`,
		`{"nodes": 8, "horizon_slots": 10, "bursty": [{"node":0,"burst_interarrival_slots":1,"mean_burst_len":0,"mean_idle_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "video": [{"node":0,"dest":1,"frame_interval_slots":10,"gop":[]}]}`,
		// Index and range checks: the service feeds untrusted JSON here.
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":8,"dests":[1],"period_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":-1,"dests":[1],"period_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":0,"dests":[9],"period_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":0,"dests":[0],"period_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":0,"dests":[1],"period_slots":5,"slots":1,"deadline_slots":-1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "poisson": [{"node":8,"mean_interarrival_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "bursty": [{"node":-2,"burst_interarrival_slots":1,"mean_burst_len":2,"mean_idle_slots":5,"slots":1}]}`,
		`{"nodes": 8, "horizon_slots": 10, "video": [{"node":0,"dest":8,"frame_interval_slots":10,"gop":[3]}]}`,
		`{"nodes": 8, "horizon_slots": 10, "video": [{"node":2,"dest":2,"frame_interval_slots":10,"gop":[3]}]}`,
		`{"nodes": 8, "horizon_slots": 10, "video": [{"node":0,"dest":1,"frame_interval_slots":10,"gop":[3,0]}]}`,
		`{"nodes": 8, "horizon_slots": 10, "loss_prob": 1.5}`,
		`{"nodes": 8, "horizon_slots": 10, "corrupt_prob": -0.1}`,
		`{"nodes": 8, "horizon_slots": 10, "link_lengths_m": [10, 10]}`,
		`{"nodes": 8, "horizon_slots": 10, "link_lengths_m": [10,10,10,10,10,10,10,-5]}`,
		`{"nodes": 8, "horizon_slots": 10, "bit_rate": -1}`,
		`{"nodes": 8, "horizon_slots": 10, "slot_payload_bytes": -1}`,
		`{"nodes": 8, "horizon_slots": 10, "trace_capacity": -2}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

// TestValidateErrorsAreFieldQualified pins the error style the HTTP API
// surfaces to clients: the offending field is named with its index.
func TestValidateErrorsAreFieldQualified(t *testing.T) {
	cases := []struct{ input, want string }{
		{`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":9,"dests":[1],"period_slots":5,"slots":1}]}`,
			"connections[0].src"},
		{`{"nodes": 8, "horizon_slots": 10, "connections": [{"src":0,"dests":[1],"period_slots":5,"slots":1},{"src":1,"dests":[2,99],"period_slots":5,"slots":1}]}`,
			"connections[1].dests[1]"},
		{`{"nodes": 8, "horizon_slots": 10, "poisson": [{"node":11,"mean_interarrival_slots":5,"slots":1}]}`,
			"poisson[0].node"},
		{`{"nodes": 8, "horizon_slots": 10, "video": [{"node":0,"dest":1,"frame_interval_slots":10,"gop":[3,0]}]}`,
			"video[0].gop[1]"},
		{`{"nodes": 8, "horizon_slots": 10, "churn": {"rate_per_sec": 1e12, "mean_hold_us": 2000}}`,
			"rate_per_sec"},
		{`{"nodes": 8, "horizon_slots": 10, "churn": {"rate_per_sec": 50000, "mean_hold_us": 1e300}}`,
			"mean_hold_us"},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.input))
		if err == nil {
			t.Errorf("accepted: %s", c.input)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not name %q", err, c.want)
		}
	}
}

func TestBuildRejectsOverloadedConnection(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "nodes": 8, "horizon_slots": 100,
	  "connections": [{"src":0,"dests":[1],"period_slots":2,"slots":1},
	                  {"src":1,"dests":[2],"period_slots":2,"slots":1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Fatal("U=1.0 set should fail admission at build time")
	}
}

func TestForcedConnectionBypassesAdmission(t *testing.T) {
	s, err := Load(strings.NewReader(`{
	  "nodes": 8, "horizon_slots": 100,
	  "connections": [{"src":0,"dests":[1],"period_slots":2,"slots":1},
	                  {"src":1,"dests":[2],"period_slots":2,"slots":1,"force":true}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err != nil {
		t.Fatalf("forced overload rejected: %v", err)
	}
}

func TestProtocolSelection(t *testing.T) {
	for _, proto := range []string{"cc-fpr", "tdma", ""} {
		s := &Scenario{Nodes: 8, HorizonSlots: 50, Protocol: proto}
		res, err := s.Build()
		if err != nil {
			t.Fatalf("%q: %v", proto, err)
		}
		want := proto
		if want == "" {
			want = "ccr-edf"
		}
		if res.Net.Config().Protocol.String() != want {
			t.Fatalf("protocol %q built %q", proto, res.Net.Config().Protocol)
		}
	}
}

func TestPhysicsOverrides(t *testing.T) {
	s := &Scenario{Nodes: 8, HorizonSlots: 10, LinkLengthM: 20, BitRate: 400_000_000, SlotPayloadBytes: 8192}
	res, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Net.Params()
	if p.LinkLengthM != 20 || p.BitRate != 400_000_000 || p.SlotPayloadBytes != 8192 {
		t.Fatalf("overrides lost: %+v", p)
	}
}

func TestDeterministicBuilds(t *testing.T) {
	run := func() int64 {
		s, _ := Load(strings.NewReader(sample))
		res, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		res.Net.Run(res.Horizon)
		return res.Net.Metrics().MessagesDelivered.Value()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("scenario runs diverge: %d vs %d", a, b)
	}
	_ = ccredf.Time(0)
}
