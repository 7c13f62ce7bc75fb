package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccredf/scenario"

	"ccredf/internal/serve/journal"
)

// TestReownedJobCannotDoubleRun pins the exactly-once contract for a
// journal-replayed ("re-owned") job under the worst interleaving the
// cluster can produce: the job is re-enqueued by replay, a thief steals it,
// the lease expires so the victim reclaims it, and the thief's completed
// result arrives anyway — all while a local worker is about to pick it up.
//
// The invariant: the mutually exclusive hand-off through the stolen-job
// table means either the thief's completion finalizes the job (and the
// reclaimed copy never reaches the engine: ReclaimStolen skips terminal
// jobs, runJob serves the cache line), or the reclaim wins and the local
// engine runs it exactly once while the late completion is discarded. Never
// both, and never two engine runs locally.
func TestReownedJobCannotDoubleRun(t *testing.T) {
	const iterations = 15
	scen := testScenario(42, 2000)

	// Reference bytes from a clean single-daemon run, for the byte-identity
	// check at the end of every interleaving.
	ref := New(Options{Workers: 1})
	refJob := submitRaw(t, ref, scen)
	awaitClosed(t, refJob.Done(), "reference job")
	want, ok := refJob.Result()
	if !ok {
		t.Fatalf("reference job ended %s: %s", refJob.State(), refJob.Err())
	}
	ref.Close()

	for it := 0; it < iterations; it++ {
		srv := New(Options{Workers: 1, IDPrefix: "deadbeef-"})

		// Instrument before anything is submitted: count engine entries per
		// job ID, and hold the first job to enter the engine — on a fresh
		// one-worker server that is the filler — so the single worker stays
		// busy while the steal/reclaim/complete race plays out on the queue.
		// Gating by arrival rather than by ID leaves no window in which the
		// worker could start the filler before the hook knows its ID.
		gate := make(chan struct{})
		fillerRunning := make(chan struct{})
		var runs sync.Map // job ID → *int32 engine-run count
		var gateFirst sync.Once
		srv.runHook = func(j *Job) {
			c, _ := runs.LoadOrStore(j.ID(), new(int32))
			atomic.AddInt32(c.(*int32), 1)
			first := false
			gateFirst.Do(func() { first = true })
			if first {
				close(fillerRunning)
				<-gate
			}
		}

		// The gate in the hook, not the horizon, is what holds the worker.
		filler := submitRaw(t, srv, testScenario(uint64(1000+it), 2000))
		awaitClosed(t, fillerRunning, "filler job to enter the engine")

		// Replay: re-own a pending job from "the journal" under its original
		// (prefixed) ID, exactly as recoverFromJournal would.
		recovID := "deadbeef-j000099"
		srv.requeueRecovered(journal.Pending{
			ID:   recovID,
			Kind: "sim",
			Spec: json.RawMessage(scen),
		})
		recov, ok := srv.Job(recovID)
		if !ok {
			t.Fatal("replayed job not registered")
		}

		// The race: thief steal + execute + complete vs lease reclaim vs the
		// local worker being released.
		var wg sync.WaitGroup
		var accepted atomic.Bool
		wg.Add(2)
		go func() { // thief with an instantly-expired lease
			defer wg.Done()
			job, ok := srv.StealQueued(time.Nanosecond)
			if !ok {
				return
			}
			key, result, err := ref.ExecuteSpec(recov.ctx, job.Kind, job.Spec, 0)
			errMsg := ""
			if err != nil {
				errMsg = err.Error()
				key = job.Key
			}
			accepted.Store(srv.CompleteStolen(job.ID, key, result, errMsg))
		}()
		go func() { // victim reclaiming expired leases, repeatedly
			defer wg.Done()
			for i := 0; i < 20; i++ {
				srv.ReclaimStolen()
				time.Sleep(100 * time.Microsecond)
			}
		}()
		time.Sleep(time.Duration(it%5) * 200 * time.Microsecond) // vary the interleaving
		close(gate)                                              // release the worker mid-race
		wg.Wait()

		select {
		case <-recov.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("iteration %d: re-owned job stuck in %s", it, recov.State())
		}
		if recov.State() != StateDone {
			t.Fatalf("iteration %d: re-owned job ended %s: %s", it, recov.State(), recov.Err())
		}
		got, _ := recov.Result()
		if !bytes.Equal(got, want) {
			t.Fatalf("iteration %d: re-owned job bytes differ from the clean run", it)
		}

		localRuns := int32(0)
		if c, ok := runs.Load(recovID); ok {
			localRuns = atomic.LoadInt32(c.(*int32))
		}
		if localRuns > 1 {
			t.Fatalf("iteration %d: re-owned job entered the engine %d times locally", it, localRuns)
		}
		if accepted.Load() && localRuns != 0 {
			t.Fatalf("iteration %d: thief completion was accepted AND the job ran locally — double run", it)
		}

		awaitClosed(t, filler.Done(), "filler job")
		srv.Close()
	}

	ref.Close()
}

// awaitClosed waits for ch to close, failing the test instead of hanging
// when a lost race means it never will.
func awaitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// submitRaw parses and submits a raw scenario body in-process.
func submitRaw(t *testing.T, srv *Server, body string) *Job {
	t.Helper()
	scen, err := scenario.Load(strings.NewReader(body))
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	j, err := srv.SubmitScenario(scen, 0)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}
