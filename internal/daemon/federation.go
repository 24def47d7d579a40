package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"gocbs/internal/api"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
)

// fedState is the daemon's federation wiring. Every daemon carries a
// leaf registry (any daemon can serve as a root; registering with a
// standalone daemon is harmless), and a daemon configured with an
// upstream additionally carries the leaf-side forwarder.
type fedState struct {
	registry *leafRegistry
	// fwd is non-nil only on a leaf: the exactly-once upstream pusher.
	fwd *dcgstore.Forwarder
	// upstream is the api client aimed at the root (leaf only), used
	// for registration heartbeats alongside the forwarder's pushes.
	upstream *api.Client
	// selfURL is the base URL this leaf advertises when registering.
	selfURL string
}

func newFedState() *fedState {
	return &fedState{registry: newLeafRegistry()}
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
// root, and the leaf relays them downward so its pullers keep polling
// the leaf. The cache is a plan.Client's: every downstream request costs
// the root at most one conditional GET (usually a 304), and a body the
// client refuses never reaches the cache. What the relay adds is what a
// root's plan service lacks: when the root fails with anything but 404
// it serves the client's cached plan stale (handlePlan marks it with
// api.HeaderRelayStale), a 404 becomes plan.ErrUnknownVersion or
// plan.ErrUnknownProgram so the endpoint keeps its status mapping, and
// its counters. Nothing here takes a lock: the client's mutex is never
// held across a round trip, so one slow root call stalls neither
// another build's request nor /metrics.
type planRelay struct {
	client *plan.Client

	fetched         atomic.Uint64 // upstream responses with a new plan
	notMod          atomic.Uint64 // upstream answers that the cached plan stands
	errors          atomic.Uint64 // upstream failures and refused bodies
	refreshes       atomic.Uint64 // upstream round trips attempted
	staleServe      atomic.Uint64 // downstream serves of a stale cached plan
	versionMismatch atomic.Uint64 // requests refused as another build's
}

// servePlan refreshes the plan for one (program, version) from the root
// and returns it, and whether it is the cached plan served stale because
// the root could not be asked. The cache is keyed per build, so a leaf
// serving a mixed fleet during a rolling upgrade relays each version's
// plan independently. Root unreachable with no cached plan:
// errRelayUnavailable. A root 404, or a plan for another build, is
// relayed as plan.ErrUnknownVersion when a version was demanded (and
// counted), otherwise a 404 is plan.ErrUnknownProgram; a stale cache
// would be wrong there, not resilient.
func (rl *planRelay) servePlan(program, version string) (*plan.Plan, bool, error) {
	rl.refreshes.Add(1)
	p, changed, err := rl.client.FetchVersion(program, version)
	if err == nil {
		if changed {
			rl.fetched.Add(1)
		} else {
			rl.notMod.Add(1)
		}
		return p, false, nil
	}
	rl.errors.Add(1)
	var he *api.HTTPError
	switch {
	case errors.Is(err, plan.ErrVersionMismatch):
		rl.versionMismatch.Add(1)
		return nil, false, fmt.Errorf("%w: root served %v", plan.ErrUnknownVersion, err)
	case errors.As(err, &he) && he.Status == http.StatusNotFound:
		if version != "" {
			rl.versionMismatch.Add(1)
			return nil, false, fmt.Errorf("%w: %s@%s (relayed from root)", plan.ErrUnknownVersion, program, version)
		}
		return nil, false, fmt.Errorf("%w (relayed from root)", plan.ErrUnknownProgram)
	}
	if p := rl.client.Cached(program, version); p != nil {
		rl.staleServe.Add(1)
		return p, true, nil
	}
	return nil, false, fmt.Errorf("%w: %v", errRelayUnavailable, err)
}

// Stats reports the relay in the plan-service shape: Computed counts new
// plans relayed, Unchanged the root's 304s, CompileErrors upstream
// failures.
func (rl *planRelay) Stats() api.PlanMetrics {
	return api.PlanMetrics{
		Programs:          rl.client.Builds(),
		Computed:          rl.fetched.Load(),
		Unchanged:         rl.notMod.Load(),
		CompileErrors:     rl.errors.Load(),
		VersionMismatches: rl.versionMismatch.Load(),
		RelayRefreshes:    rl.refreshes.Load(),
		RelayStale:        rl.staleServe.Load(),
	}
}
