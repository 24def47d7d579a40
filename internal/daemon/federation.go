package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"gocbs/internal/api"
	"gocbs/internal/dcgstore"
	"gocbs/internal/federation"
	"gocbs/internal/plan"
)

// fedState is the daemon's federation wiring. Every daemon carries a
// leaf registry (any daemon can serve as a root; registering with a
// standalone daemon is harmless), and a daemon configured with an
// upstream additionally carries the leaf-side forwarder.
type fedState struct {
	registry *federation.Registry
	// fwd is non-nil only on a leaf: the exactly-once upstream pusher.
	fwd *federation.Forwarder
	// upstream is the api client aimed at the root (leaf only), used
	// for registration heartbeats alongside the forwarder's pushes.
	upstream *api.Client
	// selfURL is the base URL this leaf advertises when registering.
	selfURL string
}

func newFedState() *fedState {
	return &fedState{registry: federation.NewRegistry()}
}

func (f *fedState) forwardMetrics() *api.ForwardMetrics {
	if f.fwd == nil {
		return nil
	}
	return f.fwd.Metrics()
}

// register sends one registration/heartbeat to the root. Best-effort:
// the delta protocol, not the registry, carries correctness.
func (f *fedState) register() error {
	if f.fwd == nil || f.upstream == nil {
		return nil
	}
	_, err := f.upstream.Register(f.fwd.Status(f.selfURL))
	return err
}

// handleFlush forces this leaf to capture and forward its accumulated
// delta upstream now. The fleet simulator uses it as a deterministic
// drain point; operators use it before taking a leaf down.
func (s *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.fed.fwd == nil {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound,
			"this daemon has no upstream (not a leaf)")
		return
	}
	resp, err := s.fed.fwd.Flush()
	if err != nil {
		api.WriteErrorf(w, http.StatusBadGateway, api.CodeUpstream,
			"flush: %d increment(s) still pending: %v", resp.Pending, err)
		return
	}
	s.writeJSON(w, resp)
}

// handleRegister accepts a leaf's registration/heartbeat.
func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var st api.LeafStatus
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&st); err != nil {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad leaf status: %v", err)
		return
	}
	if !dcgstore.ValidPusherID(st.ID) {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad leaf id: need 1-128 chars of [A-Za-z0-9._:-]")
		return
	}
	n, ok := s.fed.registry.Register(st)
	if !ok {
		// The registry is advisory and bounded; refusing a registration
		// costs bookkeeping, not correctness, and 503 tells the leaf's
		// best-effort heartbeat loop to simply try again later.
		api.WriteErrorf(w, http.StatusServiceUnavailable, api.CodeCapacity,
			"leaf registry full (%d entries)", n)
		return
	}
	s.writeJSON(w, api.RegisterResponse{Registered: true, Leaves: n})
}

// handleLeaves lists the leaves registered with this daemon.
func (s *server) handleLeaves(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, api.LeavesResponse{Leaves: s.fed.registry.List()})
}

// errRelayUnavailable marks a plan request a leaf could not serve: no
// cached plan and the root unreachable. The plan endpoint maps it to
// 503 upstream_unavailable (a puller treats that like any transient
// poll failure and keeps running).
var errRelayUnavailable = errors.New("upstream unreachable")

// planRelay is the leaf-side planSource: plans compile only at the
// root, and the leaf relays them downward with an ETag cache so its
// pullers keep polling the leaf. Every downstream request costs the
// root at most one conditional GET (usually a 304); when the root is
// unreachable the relay serves its cache stale and marks the response
// (api.HeaderRelayStale) so observers can tell.
type planRelay struct {
	upstream *api.Client

	mu      sync.Mutex
	entries map[string]*relayEntry

	// Counters for /metrics (under mu).
	fetched         uint64 // upstream responses with a new plan body
	notMod          uint64 // upstream 304s
	errors          uint64 // upstream failures
	refreshes       uint64 // upstream round trips attempted
	staleServe      uint64 // downstream serves satisfied from a stale cache
	versionMismatch uint64 // requests the root refused as unknown-version
}

type relayEntry struct {
	etag  string // the ROOT's validator, for upstream conditionals
	plan  *plan.Plan
	stale bool // last serve used the cache because the root was down
}

func newPlanRelay(upstream *api.Client) *planRelay {
	return &planRelay{upstream: upstream, entries: make(map[string]*relayEntry)}
}

// PlanForVersion refreshes the plan for one (program, version) from the
// root (conditionally, via the cached ETag) and returns it. The cache
// is keyed per build — a leaf serving a mixed fleet during a rolling
// upgrade relays each version's plan independently, so the old build's
// pullers cannot receive the new build's decisions. Root unreachable:
// the cached plan is served stale; with no cache the request fails with
// errRelayUnavailable. A root 404 is relayed as plan.ErrUnknownVersion
// when a version was demanded (and counted for /metrics), otherwise as
// plan.ErrUnknownProgram, so the endpoint keeps its status mapping.
//
// The mutex guards only the cache map and counters, never the upstream
// round trip — holding it across GetPlanVersion (up to the client
// timeout) would serialize every downstream plan request behind one
// slow root call and stall ServedStale/Counters/Stats, i.e. the whole
// plan surface and /metrics. Concurrent refreshes of the same build may
// each pay a round trip; the last response wins the cache slot, which
// is safe because plan bodies are immutable per ETag.
func (rl *planRelay) PlanForVersion(program, version string) (*plan.Plan, error) {
	key := program + "@" + version
	rl.mu.Lock()
	var etag string
	if e := rl.entries[key]; e != nil {
		etag = e.etag
	}
	rl.refreshes++
	rl.mu.Unlock()

	res, upErr := rl.upstream.GetPlanVersion(program, version, etag)

	rl.mu.Lock()
	defer rl.mu.Unlock()
	e := rl.entries[key]
	if upErr != nil {
		rl.errors++
		var he *api.HTTPError
		if errors.As(upErr, &he) && he.Status == http.StatusNotFound {
			// The root does not know the program (or cannot produce the
			// demanded build); a stale cache would be wrong, not
			// resilient.
			if version != "" {
				rl.versionMismatch++
				return nil, fmt.Errorf("%w: %s@%s (relayed from root)", plan.ErrUnknownVersion, program, version)
			}
			return nil, fmt.Errorf("%w (relayed from root)", plan.ErrUnknownProgram)
		}
		if e != nil && e.plan != nil {
			e.stale = true
			rl.staleServe++
			return e.plan, nil
		}
		return nil, fmt.Errorf("%w: %v", errRelayUnavailable, upErr)
	}
	if res.NotModified {
		rl.notMod++
		if e == nil || e.plan == nil {
			return nil, fmt.Errorf("%w: root answered 304 with no cached plan", errRelayUnavailable)
		}
		e.stale = false
		return e.plan, nil
	}
	p, err := plan.Decode(res.Body, version)
	if errors.Is(err, plan.ErrVersionMismatch) {
		// A root must never answer a versioned request with another
		// build's plan; refuse to cache or relay one that does.
		rl.errors++
		rl.versionMismatch++
		return nil, fmt.Errorf("%w: root served %v", plan.ErrUnknownVersion, err)
	}
	if err != nil {
		rl.errors++
		return nil, fmt.Errorf("relay: bad plan body from root: %w", err)
	}
	rl.fetched++
	rl.entries[key] = &relayEntry{etag: res.ETag, plan: p}
	return p, nil
}

// ServedStale reports whether the most recent serve for one build came
// from the cache because the root was unreachable.
func (rl *planRelay) ServedStale(program, version string) bool {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	e := rl.entries[program+"@"+version]
	return e != nil && e.stale
}

// Counters returns (upstream refresh attempts, stale serves).
func (rl *planRelay) Counters() (refreshes, stale uint64) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return rl.refreshes, rl.staleServe
}

// Stats adapts the relay's counters to the plan-service stat shape the
// metrics endpoint reports: Computed = new plan bodies relayed,
// Unchanged = upstream 304s.
func (rl *planRelay) Stats() plan.ServiceStats {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return plan.ServiceStats{
		Programs:          len(rl.entries),
		Computed:          rl.fetched,
		Unchanged:         rl.notMod,
		Errors:            rl.errors,
		VersionMismatches: rl.versionMismatch,
	}
}
