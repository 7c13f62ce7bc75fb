package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

// env carries one run's parameters and shared instruments.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	checks   *checker
	// tr records spans in a traced run; nil (a no-op) otherwise.
	tr *tracer
}

func newEnv(workload string, seed uint64, seconds time.Duration, traced bool) *env {
	e := &env{workload: workload, seed: seed, seconds: seconds, traced: traced, checks: &checker{}}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// waitCtx bounds one wait: past waitLimit the run fails with a stack dump.
func waitCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
	return ctx, cancel
}

// checkWait turns a deadline overrun into a stack-dump failure and returns
// any other error unchanged.
func checkWait(ctx context.Context, what string, err error) error {
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		stuck(fmt.Sprintf("%s did not finish within %v", what, waitLimit))
	}
	return err
}

// phases splits a traced run's measured time: the first third runs untraced
// so the traced remainder can be compared against it.
func (e *env) phases() (untraced, traced time.Duration) {
	if !e.traced {
		return e.seconds, 0
	}
	return e.seconds / 3, e.seconds - e.seconds/3
}

// checker counts attempted operations and failed ones (errors, refusals and
// wrong outputs).
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64
	logged    atomic.Int64
}

// attempt counts one operation.
func (c *checker) attempt() { c.attempted.Add(1) }

// fail counts one failed operation and logs the first few reasons.
func (c *checker) fail(err error) {
	c.failed.Add(1)
	if c.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
	}
}

// verify counts one operation whose output check returned err.
func (c *checker) verify(err error) {
	c.attempt()
	if err != nil {
		c.fail(err)
	}
}

func (c *checker) counts() (attempted, failed int64) {
	return c.attempted.Load(), c.failed.Load()
}

// mustReject feeds a deliberately wrong output to a workload's check: a
// check that accepts it is blind, and the run cannot be trusted.
func mustReject(what string, err error) error {
	if err == nil {
		return fmt.Errorf("self-check: the %s check accepted a deliberately wrong output", what)
	}
	return nil
}

// span is one timed interval; Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// durations returns the wall seconds of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs > 0 {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// writeFile dumps the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler samples the bytes of heap objects every 2 ms while a timed
// phase runs. Its peak is the 99th percentile of the samples: the top of
// the GC sawtooth, without the single highest sample, which depends on
// where one collection happened to land.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// startHeap collects garbage first, so every run starts from the same clean
// heap.
func startHeap() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in bytes.
func (h *heapSampler) end() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99)
}

// timeSetup runs fn setupRepeats times and returns each wall time; the last
// repetition's state is the one the workload keeps.
func timeSetup(fn func(last bool) error) ([]float64, error) {
	var walls []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := fn(i == setupRepeats-1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return walls, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation (0 for an
// empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail reports the highest of p99 and p90 that has at least ten samples
// beyond it; ok is false when even p90 has fewer.
func tail(xs []float64) (name string, v float64, ok bool) {
	switch {
	case len(xs) >= 1000:
		return "p99", quantile(xs, 0.99), true
	case len(xs) >= 100:
		return "p90", quantile(xs, 0.90), true
	}
	return "", 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fingerprint identifies the host and toolchain a result was measured on.
type fingerprint struct {
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Traced       bool   `json:"traced"`
}

func hostFingerprint(e *env) fingerprint {
	return fingerprint{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest(),
		Workload:     e.workload,
		Seed:         e.seed,
		Seconds:      int(e.seconds / time.Second),
		Traced:       e.traced,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves .git/HEAD when the checkout is a git work tree; an
// exported tree has no commit and reports "none" (source_sha256 still
// identifies it).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under the checkout root,
// in path order, so two results name the exact code they measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
