package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/stats"
)

// DefaultMaxUploadBytes bounds ingest/overlap request bodies unless
// Config.MaxUploadBytes overrides it.
const DefaultMaxUploadBytes = 256 << 20

// server is the cbsd HTTP surface over a dcgstore.Multi: one substore
// per (program, version) build for stamped pushes, and the zero key's
// for unstamped ones. All handlers are safe for concurrent use: every
// mutation and every read of a graph is one critical section of that
// substore's one mutex (two builds never share it; a push is 13–410
// edges, so the section is short, and no handler reads a graph except
// as a whole consistent copy), and the counters here are atomics.
type server struct {
	multi     *dcgstore.Multi
	plans     planSource
	fed       *fedState
	start     time.Time
	maxUpload int64
	logf      func(format string, args ...any) // Config.Logf, or Run's no-op

	ingests      atomic.Uint64
	ingestErrors atomic.Uint64
	mergeNanos   atomic.Int64

	// ingestLat is the handler's milliseconds per push that reached the
	// store, applied or duplicate — read, decode, merge and reply; a
	// refused push is in ingestErrors and not timed. /v1/metrics serves
	// its p50/p99 since boot: daemon.ingest_handler_p50_ms and _p99_ms.
	ingestLat stats.Histogram

	planRequests    atomic.Uint64
	planNotModified atomic.Uint64
	planErrors      atomic.Uint64

	// encodeErrOnce gates the one log line writeJSON emits for encode
	// failures (per-connection write errors would otherwise spam).
	encodeErrOnce sync.Once
}

// planSource is what the plan endpoint needs from whoever compiles or
// relays plans: the root daemon's plan.Service compiles them from the
// aggregated store; a leaf's planRelay serves its upstream cache.
// servePlan's version "" asks for the source's canonical build of the
// program; a non-empty version demands that exact build or
// plan.ErrUnknownVersion. stale marks a plan served although the source
// could not refresh it. Stats is the source's half of /metrics' plan
// section; the server fills in the request counters.
type planSource interface {
	servePlan(program, version string) (p *plan.Plan, stale bool, err error)
	Stats() api.PlanMetrics
}

// compiledPlans is the root's planSource: a plan the service serves is
// never stale.
type compiledPlans struct{ *plan.Service }

func (c compiledPlans) servePlan(program, version string) (*plan.Plan, bool, error) {
	p, err := c.PlanForVersion(program, version)
	return p, false, err
}

func newServer(multi *dcgstore.Multi, plans planSource, fed *fedState, maxUpload int64, logf func(string, ...any)) *server {
	if maxUpload <= 0 {
		maxUpload = DefaultMaxUploadBytes
	}
	return &server{
		multi: multi, plans: plans, fed: fed, start: time.Now(), maxUpload: maxUpload, logf: logf,
	}
}

// handler routes the daemon's endpoints. Every route lives under /v1
// (paths and method guards from internal/api) and anything else is the
// mux's 404. Read endpoints are GET-only, mutating endpoints POST-only,
// and violations get a 405 with the error envelope.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathIngest, postOnly(s.handleIngest))
	mux.HandleFunc(api.PathSnapshot, getOnly(s.handleSnapshot))
	mux.HandleFunc(api.PathTop, getOnly(s.handleTop))
	mux.HandleFunc(api.PathSite, getOnly(s.handleSite))
	mux.HandleFunc(api.PathOverlap, getOnly(s.handleOverlap))
	mux.HandleFunc(api.PathManifest, postOnly(s.handleManifest))
	mux.HandleFunc(api.PathDecay, postOnly(s.handleDecay))
	mux.HandleFunc(api.PathPlan, getOnly(s.handlePlan))
	mux.HandleFunc(api.PathMetrics, getOnly(s.handleMetrics))
	mux.HandleFunc(api.PathHealthz, getOnly(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	if s.fed != nil {
		mux.HandleFunc(api.PathFlush, postOnly(s.handleFlush))
		mux.HandleFunc(api.PathRegister, postOnly(s.handleRegister))
		mux.HandleFunc(api.PathLeaves, getOnly(s.handleLeaves))
	}
	return mux
}

// getOnly rejects every method but GET (and HEAD, which net/http
// serves as a bodyless GET) with an enveloped 405.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			api.WriteMethodNotAllowed(w, http.MethodGet)
			return
		}
		h(w, r)
	}
}

// postOnly rejects every method but POST with an enveloped 405.
func postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteMethodNotAllowed(w, http.MethodPost)
			return
		}
		h(w, r)
	}
}

// writeJSON answers every JSON request but a push: indented, for a person
// at curl.
func (s *server) writeJSON(w http.ResponseWriter, v any) { s.encodeJSON(w, v, "  ") }

// encodeJSON writes v as one JSON value and a newline, each level
// indented by indent. An empty indent is json.Marshal's compact layout,
// which is how a push is acknowledged: its reader is the pusher's client,
// and every VM pays the ack's bytes on every push.
func (s *server) encodeJSON(w http.ResponseWriter, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		// Almost always the client hanging up mid-response; log the
		// first so a systematic encode bug is visible, stay quiet after.
		s.encodeErrOnce.Do(func() {
			s.logf("response encode failed (logged once): %v", err)
		})
	}
}

// readProfileBody parses a serialized DCG out of a request body. The
// body is capped with http.MaxBytesReader: a payload that exceeds the
// cap is answered 413 (distinct from the 400 a malformed body earns),
// and the server never buffers more than the cap in memory.
//
// This is the ingest fast path: the body is slurped into a pooled
// buffer and batch-decoded in place (profile.DecodeDCGBytes retains
// nothing from the slice), so steady-state ingest allocates no body
// buffer. What decode allocates is the graph: the DCG and its map, made
// once at the edge count the header declares (the length check proves
// that count first), so the map never grows by doubling.
func (s *server) readProfileBody(w http.ResponseWriter, r *http.Request) (*profile.DCG, bool) {
	buf := dcgstore.DecodeBuffers.Get()
	defer dcgstore.DecodeBuffers.Put(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxUpload)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			api.WriteErrorf(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
				"profile payload exceeds %d bytes", tooBig.Limit)
			return nil, false
		}
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad profile payload: %v", err)
		return nil, false
	}
	g, err := profile.DecodeDCGBytes(buf.Bytes())
	if err != nil {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad profile payload: %v", err)
		return nil, false
	}
	return g, true
}

// ingestStamp extracts and validates the optional idempotency headers.
// ok=false means the request was answered with an error.
func (s *server) ingestStamp(w http.ResponseWriter, r *http.Request) (pusher string, seq uint64, ok bool) {
	pusher = r.Header.Get(api.HeaderPusher)
	seqHdr := r.Header.Get(api.HeaderSeq)
	if pusher == "" && seqHdr == "" {
		return "", 0, true // unstamped push
	}
	if !dcgstore.ValidPusherID(pusher) {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header: need 1-128 chars of [A-Za-z0-9._:-]", api.HeaderPusher)
		return "", 0, false
	}
	seq, err := strconv.ParseUint(seqHdr, 10, 64)
	if err != nil || seq == 0 {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header %q: need a positive integer", api.HeaderSeq, seqHdr)
		return "", 0, false
	}
	return pusher, seq, true
}

// ingestKey extracts and validates the optional program-identity
// headers. Both headers come together or not at all: a program name
// without the content-addressed version would recreate exactly the
// name-only aliasing this key exists to prevent. ok=false means the
// request was answered with an error.
func (s *server) ingestKey(w http.ResponseWriter, r *http.Request) (key api.ProgramKey, ok bool) {
	key = api.ProgramKey{
		Program: r.Header.Get(api.HeaderProgram),
		Version: r.Header.Get(api.HeaderProgramVersion),
	}
	if key.IsZero() {
		return key, true // unkeyed push
	}
	if key.Program == "" || key.Version == "" {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest,
			"%s and %s must be sent together", api.HeaderProgram, api.HeaderProgramVersion)
		return key, false
	}
	if !plan.ValidProgramName(key.Program) {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header: need 1-64 chars of [A-Za-z0-9._-]", api.HeaderProgram)
		return key, false
	}
	if !api.ValidProgramVersion(key.Version) {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad %s header: need 1-64 lowercase hex chars", api.HeaderProgramVersion)
		return key, false
	}
	return key, true
}

// handleIngest merges one POSTed DCG snapshot into the store — into the
// substore of the (program, version) build named by the identity
// headers, or the zero key's when there are none. Requests stamped
// with (pusher, sequence) headers are idempotent per substore: a retry
// of an increment that was already applied is acknowledged without
// being merged again.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	pusher, seq, ok := s.ingestStamp(w, r)
	if !ok {
		s.ingestErrors.Add(1)
		return
	}
	key, ok := s.ingestKey(w, r)
	if !ok {
		s.ingestErrors.Add(1)
		return
	}
	sub := s.multi.For(key)
	if sub == nil {
		// The key validated above, so nil means the substore ledger is at
		// its anti-DoS cap.
		s.ingestErrors.Add(1)
		api.WriteErrorf(w, http.StatusServiceUnavailable, api.CodeCapacity,
			"program version ledger full (%d builds)", dcgstore.MaxProgramKeys)
		return
	}
	g, ok := s.readProfileBody(w, r)
	if !ok {
		s.ingestErrors.Add(1)
		return
	}
	t0 := time.Now()
	applied := sub.MergeDCGFrom(pusher, seq, g)
	if applied {
		s.mergeNanos.Add(time.Since(t0).Nanoseconds())
	}
	s.ingests.Add(1)
	st := sub.Stats()
	s.encodeJSON(w, api.IngestResponse{
		Applied:      applied,
		Duplicate:    !applied,
		MergedEdges:  g.NumEdges(),
		MergedWeight: g.Total(),
		StoreEdges:   st.Edges,
		StoreWeight:  st.TotalWeight,
	}, "")
	s.ingestLat.Observe(float64(time.Since(reqStart).Nanoseconds()) / 1e6)
}

// handleManifest accepts one build's method/site manifest (POSTed as
// JSON) and registers it with the store, carrying forward still-valid
// profile mass from the program's previous build. Idempotent, so
// clients may retry freely.
func (s *server) handleManifest(w http.ResponseWriter, r *http.Request) {
	man, err := bytecode.DecodeManifest(http.MaxBytesReader(w, r.Body, s.maxUpload))
	if err != nil {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad manifest: %v", err)
		return
	}
	if !plan.ValidProgramName(man.Program) || !api.ValidProgramVersion(man.Version) {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest,
			"bad manifest key %s@%s", man.Program, man.Version)
		return
	}
	edges, weight, err := s.multi.RegisterManifest(man)
	if err != nil {
		api.WriteErrorf(w, http.StatusServiceUnavailable, api.CodeCapacity, "manifest: %v", err)
		return
	}
	s.writeJSON(w, api.ManifestResponse{
		Registered:    true,
		CarriedEdges:  edges,
		CarriedWeight: weight,
	})
}

// queryGraph resolves the graph a read endpoint should serve:
// ?program=&version= selects one build's substore (version may be
// omitted to mean the program's latest registered build), no program
// parameter selects the cross-version merged view (every substore —
// for a store that never saw a keyed push, just the zero key's).
// ok=false means the request was answered with an error.
func (s *server) queryGraph(w http.ResponseWriter, r *http.Request) (g *profile.DCG, ok bool) {
	q := r.URL.Query()
	program, version := q.Get("program"), q.Get("version")
	if program == "" && version == "" {
		return s.multi.MergedSnapshot(), true
	}
	if program == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest,
			"?version= needs ?program=")
		return nil, false
	}
	if version == "" {
		version = s.multi.LatestVersion(program)
		if version == "" {
			api.WriteErrorf(w, http.StatusNotFound, api.CodeNotFound,
				"no profile for program %q", program)
			return nil, false
		}
	}
	if !api.ValidProgramVersion(version) {
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad version %q", version)
		return nil, false
	}
	sub := s.multi.Lookup(api.ProgramKey{Program: program, Version: version})
	if sub == nil {
		api.WriteErrorf(w, http.StatusNotFound, api.CodeNotFound,
			"no profile for %s@%s", program, version)
		return nil, false
	}
	return sub.Snapshot(), true
}

// handleSnapshot streams a consistent DCG in the binary wire format:
// one build's graph with ?program=&version=, the cross-version merge
// without.
func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	g, ok := s.queryGraph(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := g.WriteTo(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// handleTop returns the k heaviest edges of the current snapshot. An
// attacker-chosen k allocates nothing extra: TopEdges clamps it first.
func (s *server) handleTop(w http.ResponseWriter, r *http.Request) {
	k := 20
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad k %q", q)
			return
		}
		k = n
	}
	g, ok := s.queryGraph(w, r)
	if !ok {
		return
	}
	top := g.TopEdges(k)
	edges := make([]api.Edge, 0, len(top))
	for _, e := range top {
		edges = append(edges, api.Edge{
			Caller: e.Caller, Site: e.Site, Callee: e.Callee,
			Weight: g.Weight(e), Percent: g.Percent(e),
		})
	}
	s.writeJSON(w, api.TopResponse{Edges: edges, TotalWeight: g.Total(), Windows: g.Windows()})
}

// handleSite returns the receiver-target distribution at one call
// site — the daemon-side version of the paper's guarded-inlining
// input.
func (s *server) handleSite(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("id"))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "pass ?id=<call site id>")
		return
	}
	g, ok := s.queryGraph(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, api.SiteResponse{
		Site:         id,
		SiteWeightPc: g.SiteWeightPercent(id),
		Targets:      g.SiteDistribution(id),
	})
}

// handleOverlap scores the store's snapshot against an uploaded
// reference DCG with the paper's overlap metric. A read — the store is
// untouched — so the route is GET (with a request body, like a
// search); POST gets the standard 405.
func (s *server) handleOverlap(w http.ResponseWriter, r *http.Request) {
	ref, ok := s.readProfileBody(w, r)
	if !ok {
		return
	}
	g, ok := s.queryGraph(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, api.OverlapResponse{
		Overlap:        profile.Overlap(g, ref),
		StoreEdges:     g.NumEdges(),
		ReferenceEdges: ref.NumEdges(),
	})
}

// handleDecay runs one decay epoch on demand.
func (s *server) handleDecay(w http.ResponseWriter, r *http.Request) {
	factor, err := strconv.ParseFloat(r.URL.Query().Get("factor"), 64)
	if err != nil || factor < 0 || factor > 1 {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "pass ?factor= in [0,1]")
		return
	}
	prune := 0.0
	if q := r.URL.Query().Get("prune"); q != "" {
		prune, err = strconv.ParseFloat(q, 64)
		if err != nil || prune < 0 {
			api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad prune %q", q)
			return
		}
	}
	// One epoch across the whole store family: each build's graph ages
	// at the same rate, so no version's plan inputs drift relative to
	// another's.
	pruned := s.multi.DecayAll(factor, prune)
	s.writeJSON(w, api.DecayResponse{Epoch: s.multi.Stats().Epoch, PrunedEdges: pruned})
}

// planETag renders a plan's strong validator: epoch plus content
// hash. Epoch alone would not do — a restarted daemon could in
// principle reach the same epoch through different decisions.
func planETag(p *plan.Plan) string {
	return fmt.Sprintf("\"plan-%d-%016x\"", p.Epoch, p.Hash)
}

// handlePlan serves the current inlining plan for ?program= in the
// binary plan wire format. The response carries a strong ETag, so a
// polling VM that already holds the latest plan pays one conditional
// GET answered 304, no body. What the daemon pays for it is what the
// graph's movement costs (plan.Service): nothing while the build's
// store stands still, one snapshot and one pass over its edges while
// pushes leave the conditioned graph where it was, a compile only when
// an edge crossed the floor or a grid point. On a leaf the plan source
// is the upstream relay, so pullers keep hitting their leaf while
// compilation happens only at the root.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.planRequests.Add(1)
	if s.plans == nil {
		api.WriteError(w, http.StatusNotFound, api.CodeNotFound, "plan service disabled")
		return
	}
	program := r.URL.Query().Get("program")
	if program == "" {
		s.planErrors.Add(1)
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "pass ?program=<benchmark name>")
		return
	}
	version := r.URL.Query().Get("version")
	if version != "" && !api.ValidProgramVersion(version) {
		s.planErrors.Add(1)
		api.WriteErrorf(w, http.StatusBadRequest, api.CodeBadRequest, "bad version %q", version)
		return
	}
	p, stale, err := s.plans.servePlan(program, version)
	if err != nil {
		s.planErrors.Add(1)
		switch {
		case errors.Is(err, plan.ErrUnknownProgram), errors.Is(err, plan.ErrUnknownVersion):
			// Unknown version maps to the same 404 as unknown program: a
			// puller on a build this daemon cannot plan for keeps running
			// unoptimized — the safe failure — and the mismatch is
			// visible in /metrics.
			api.WriteError(w, http.StatusNotFound, api.CodeNotFound, err.Error())
		case errors.Is(err, errRelayUnavailable):
			api.WriteErrorf(w, http.StatusServiceUnavailable, api.CodeUpstream,
				"plan relay has no cached plan and the root is unreachable: %v", err)
		default:
			api.WriteErrorf(w, http.StatusInternalServerError, api.CodeInternal,
				"plan compilation failed: %v", err)
		}
		return
	}
	etag := planETag(p)
	w.Header().Set("ETag", etag)
	w.Header().Set(api.HeaderPlanEpoch, strconv.FormatUint(p.Epoch, 10))
	w.Header().Set(api.HeaderPlanPolicy, p.Policy)
	if stale {
		w.Header().Set(api.HeaderRelayStale, "1")
	}
	if r.Header.Get("If-None-Match") == etag {
		s.planNotModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := p.WriteTo(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

// handleMetrics reports expvar-style operational counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.multi.Stats()
	ingests := s.ingests.Load()
	nanos := s.mergeNanos.Load()
	var meanMs float64
	if applied := ingests - st.Duplicates; applied > 0 {
		meanMs = float64(nanos) / float64(applied) / 1e6
	}
	m := api.MetricsResponse{
		Edges:                   st.Edges,
		TotalWeight:             st.TotalWeight,
		SamplesIngested:         st.SamplesIngested,
		Merges:                  st.Merges,
		DecayEpoch:              st.Epoch,
		Pushers:                 st.Pushers,
		Ingests:                 ingests,
		IngestErrors:            s.ingestErrors.Load(),
		IngestDups:              st.Duplicates,
		MergeMsTotal:            float64(nanos) / 1e6,
		MergeMsMean:             meanMs,
		UptimeS:                 time.Since(s.start).Seconds(),
		ProgramVersions:         s.multi.NumKeys(),
		VersionSubstoresEvicted: s.multi.Evicted(),
	}
	if lat := s.ingestLat.Summary(); lat.Count > 0 {
		m.IngestLat = &api.LatencyMetrics{
			Count: lat.Count, Mean: lat.Mean, P50: lat.P50, P99: lat.P99, Max: lat.Max,
		}
	}
	if s.plans != nil {
		ps := s.plans.Stats()
		ps.Requests = s.planRequests.Load()
		ps.NotModified = s.planNotModified.Load()
		ps.RequestErrors = s.planErrors.Load()
		m.Plan = &ps
	}
	if s.fed != nil {
		m.Forward = s.fed.forwardMetrics()
	}
	s.writeJSON(w, m)
}
