// Package fleetsim is the fleet-scale chaos harness: it runs N
// in-process CBS-profiled pusher VMs and plan-pulling VMs against a
// real cbsd daemon (internal/daemon, in-process, real TCP listener)
// while a seeded fault layer misbehaves underneath them — injected
// latency, dropped responses, connection resets, synthetic 5xx, and
// scheduled daemon kill/restart cycles over the same checkpoint state
// dir. Online invariant checkers (invariants.go) assert the
// system-level guarantees the push/plan/checkpoint subsystems promise
// individually, end to end and under fire.
//
// # Determinism contract
//
// Every fault decision is drawn from a per-actor PRNG stream seeded by
// (fleet seed, actor name), and each actor issues its requests
// sequentially, so the fault schedule — which request of which actor
// suffers which fault — is a pure function of the seed, independent of
// goroutine interleaving and wall-clock timing. Same seed ⇒ same fault
// schedule ⇒ same invariant verdicts and the same final aggregate
// graph. Wall-clock measurements (latency histograms, throughput) and
// interleaving-dependent observations (which plan epoch a puller
// happened to see) are reported but excluded from the deterministic
// digest; see Report.Deterministic.
package fleetsim

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gocbs/internal/stats"
)

// FaultKind enumerates the injectable network faults.
type FaultKind string

const (
	// FaultLatency delays the request, then delivers it normally.
	FaultLatency FaultKind = "latency"
	// FaultDropResponse delivers the request to the daemon, then
	// discards the response and reports a network error to the caller —
	// the fault that makes exactly-once delivery earn its name: the
	// daemon applied the increment, the pusher must retry it, and the
	// retry must be deduplicated.
	FaultDropResponse FaultKind = "drop-response"
	// FaultReset refuses the request before it reaches the daemon.
	FaultReset FaultKind = "reset"
	// Fault5xx answers with a synthetic 503 without touching the daemon.
	Fault5xx FaultKind = "5xx"
)

// AllFaults is every injectable fault kind, in canonical order.
var AllFaults = []FaultKind{FaultLatency, FaultDropResponse, FaultReset, Fault5xx}

// FaultSet selects which fault kinds a run injects.
type FaultSet map[FaultKind]bool

// ParseFaults parses a -faults flag value: "all", "none", or a
// comma-separated subset of latency,drop-response,reset,5xx.
func ParseFaults(s string) (FaultSet, error) {
	fs := make(FaultSet)
	switch strings.TrimSpace(s) {
	case "", "none":
		return fs, nil
	case "all":
		for _, k := range AllFaults {
			fs[k] = true
		}
		return fs, nil
	}
	for _, part := range strings.Split(s, ",") {
		k := FaultKind(strings.TrimSpace(part))
		switch k {
		case FaultLatency, FaultDropResponse, FaultReset, Fault5xx:
			fs[k] = true
		default:
			return nil, fmt.Errorf("unknown fault kind %q (want all, none, or a subset of latency,drop-response,reset,5xx)", part)
		}
	}
	return fs, nil
}

// String renders the set in canonical order ("none" when empty).
func (fs FaultSet) String() string {
	var parts []string
	for _, k := range AllFaults {
		if fs[k] {
			parts = append(parts, string(k))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// faultRate is the per-request probability of each enabled fault kind.
// With all four enabled roughly one request in five is disturbed —
// hostile enough to exercise every retry path, tame enough that a
// short soak still converges.
const faultRate = 0.05

// FaultEvent is one scheduled fault: request index `Request` of actor
// `Actor` draws `Kind`. The sequence of FaultEvents is the run's fault
// schedule and is a pure function of the seed: faults are drawn for
// every request, including requests made while injection is suspended
// for a quiesce window (the draw is recorded, the effect suppressed),
// so the schedule never depends on where those windows happen to fall.
type FaultEvent struct {
	Actor   string    `json:"actor"`
	Request int       `json:"request"`
	Kind    FaultKind `json:"kind"`
}

// router points every actor's HTTP client at the live listen address
// of the daemon it talks to. Daemons are restarted mid-run and come
// back on fresh ports (tests bind 127.0.0.1:0), so clients address
// stable placeholder hosts and the chaos transport rewrites them at
// request time. Single-daemon runs use one entry (PlaceholderHost); a
// federation tree keys one entry per daemon (root + each leaf). While
// a daemon is down its entry is empty and requests to it fail with a
// synthetic connection-refused error.
type router struct {
	mu      sync.Mutex
	targets map[string]string // placeholder host -> live addr
}

// PlaceholderHost is the host actors' base URLs use in single-daemon
// runs; the chaos transport rewrites it to the daemon's live address.
const PlaceholderHost = "cbsd.fleetsim.invalid"

// LeafHost returns the stable placeholder host tree-mode actors use to
// address leaf i.
func LeafHost(i int) string { return fmt.Sprintf("leaf-%02d.fleetsim.invalid", i) }

func newRouter() *router {
	return &router{targets: make(map[string]string)}
}

func (r *router) set(host, addr string) {
	r.mu.Lock()
	r.targets[host] = addr
	r.mu.Unlock()
}

// lookup resolves a placeholder host to the live address, "" when that
// daemon is down. A host with no entry at all (a real address used
// directly) passes through unchanged.
func (r *router) lookup(host string) (addr string, known bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, known = r.targets[host]
	return addr, known
}

// chaos is the shared fault-injection state for one fleet run: the
// router, the global enable switch (quiesced phases suspend fault
// effects; draws continue so the schedule stays deterministic), the
// recorded schedule, and the latency histograms.
type chaos struct {
	seed    int64
	faults  FaultSet
	router  *router
	maxWait time.Duration
	enabled atomic.Bool

	mu       sync.Mutex
	schedule []FaultEvent
	counts   map[FaultKind]int

	pushLatency stats.Histogram
	pullLatency stats.Histogram

	// inner is the real transport requests are delivered through.
	inner *http.Transport
}

func newChaos(seed int64, faults FaultSet, maxWait time.Duration) *chaos {
	if maxWait <= 0 {
		maxWait = 2 * time.Millisecond
	}
	c := &chaos{
		seed:    seed,
		faults:  faults,
		router:  newRouter(),
		maxWait: maxWait,
		counts:  make(map[FaultKind]int),
		// No keep-alive pooling: under concurrent actors the pool dials
		// spare connections that park unused, and the daemon's
		// http.Server.Shutdown treats such never-used connections as
		// possibly-active for 5 seconds (the issue-22682 heuristic),
		// turning every quiesced restart into a multi-second stall.
		// Dialing 127.0.0.1 per request is cheap; restarts are instant.
		inner: &http.Transport{DisableKeepAlives: true},
	}
	c.enabled.Store(true)
	return c
}

func (c *chaos) close() { c.inner.CloseIdleConnections() }

func (c *chaos) record(ev FaultEvent) {
	c.mu.Lock()
	c.schedule = append(c.schedule, ev)
	c.counts[ev.Kind]++
	c.mu.Unlock()
}

// scheduleCopy returns the injected fault schedule sorted by (actor,
// request) — a canonical order independent of goroutine interleaving.
func (c *chaos) scheduleCopy() []FaultEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FaultEvent, len(c.schedule))
	copy(out, c.schedule)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Actor != out[j].Actor {
			return out[i].Actor < out[j].Actor
		}
		return out[i].Request < out[j].Request
	})
	return out
}

func (c *chaos) countsCopy() map[FaultKind]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[FaultKind]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// actorSeed derives a per-actor stream seed from the fleet seed and the
// actor's name (FNV-1a over the name, mixed with the seed).
func actorSeed(seed int64, actor string) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(actor); i++ {
		h ^= uint64(actor[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// transport is the per-actor fault-injecting http.RoundTripper. Each
// actor owns one and issues requests through it sequentially, so the
// rng consumption — and therefore the fault schedule — is deterministic
// per actor regardless of how the fleet's goroutines interleave.
type transport struct {
	chaos *chaos
	actor string
	rng   *rand.Rand
	// kind classifies the actor's requests for the latency histograms
	// ("push" or "pull").
	kind     string
	requests int
}

func (c *chaos) transportFor(actor, kind string) *transport {
	return &transport{
		chaos: c,
		actor: actor,
		rng:   rand.New(rand.NewSource(actorSeed(c.seed, actor))),
		kind:  kind,
	}
}

// connRefused mimics the error shape of a TCP connection refused.
type connRefused struct{ host string }

func (e *connRefused) Error() string {
	return fmt.Sprintf("dial tcp %s: connect: connection refused (daemon down)", e.host)
}

// draw decides this request's fault and, for latency faults, its
// duration. Called exactly once per request — unconditionally, whether
// or not injection is currently enabled — so the per-actor stream
// advances at the same rate regardless of timing. Every rng consumer
// lives here; the RoundTrip effect path draws nothing.
func (t *transport) draw() (kind FaultKind, wait time.Duration, drawn bool) {
	for _, k := range AllFaults {
		if !t.chaos.faults[k] {
			continue
		}
		// One independent draw per enabled kind keeps each kind's
		// marginal rate at faultRate regardless of which others are on.
		if t.rng.Float64() < faultRate {
			if k == FaultLatency {
				wait = time.Duration(t.rng.Int63n(int64(t.chaos.maxWait) + 1))
			}
			return k, wait, true
		}
	}
	return "", 0, false
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests++
	reqIndex := t.requests

	fault, wait, drawn := t.draw()
	if drawn {
		t.chaos.record(FaultEvent{Actor: t.actor, Request: reqIndex, Kind: fault})
	}
	// The schedule is deterministic; whether a drawn fault takes effect
	// additionally requires injection to be enabled (quiesce windows
	// suspend effects without perturbing the stream).
	injected := drawn && t.chaos.enabled.Load()

	start := time.Now()
	defer func() {
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		if t.kind == "pull" {
			t.chaos.pullLatency.Observe(ms)
		} else {
			t.chaos.pushLatency.Observe(ms)
		}
	}()

	if injected {
		switch fault {
		case FaultReset:
			return nil, fmt.Errorf("chaos: connection reset before delivery (%s request %d)", t.actor, reqIndex)
		case Fault5xx:
			return &http.Response{
				StatusCode: http.StatusServiceUnavailable,
				Status:     "503 Service Unavailable (chaos)",
				Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
				Header:  make(http.Header),
				Body:    io.NopCloser(strings.NewReader("chaos: synthetic 503\n")),
				Request: req,
			}, nil
		case FaultLatency:
			// Duration was drawn with the fault; wall-clock effect only.
			time.Sleep(wait)
		}
	}

	r2 := req
	if target, known := t.chaos.router.lookup(req.URL.Host); known {
		if target == "" {
			return nil, &connRefused{host: req.URL.Host}
		}
		// Clone before rewriting: RoundTrippers must not mutate the
		// caller's request.
		r2 = req.Clone(req.Context())
		r2.URL.Host = target
	}
	resp, err := t.chaos.inner.RoundTrip(r2)
	if err != nil {
		return nil, err
	}
	if injected && fault == FaultDropResponse {
		// The daemon processed the request; the caller never learns.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: response dropped after delivery (%s request %d)", t.actor, reqIndex)
	}
	return resp, nil
}
