// Package api is the single source of truth for the cbsd daemon's HTTP
// surface: versioned endpoint paths, shared header names, the canonical
// JSON error envelope, typed request/response bodies, and the one HTTP
// client every caller — delta pushers, plan pullers, tools, and the
// federation tier's leaf→root forwarder — speaks through.
//
// Before this package existed the endpoint paths and the
// X-Cbs-Pusher/X-Cbs-Seq header strings were duplicated across the
// daemon, the push client, the plan client, and the puller, and each of
// the three clients hand-rolled its own retry/timeout policy. Everything
// route- or wire-shaped now lives here; the daemon and every client
// import these constants, so grep for an endpoint literal outside this
// package should come up empty.
//
// # Versioning
//
// Every route lives under /v1 and has no other spelling: a path outside
// the table below is the mux's ordinary 404. The payloads are versioned
// in their own headers (profile.WireVersion, plan.PlanWireVersion), one
// version each.
package api

// Versioned endpoint paths. The daemon registers each of these;
// clients use only these.
const (
	// PathIngest accepts one POSTed DCGB-serialized call-graph delta,
	// idempotent under the HeaderPusher/HeaderSeq stamp.
	PathIngest = "/v1/ingest"
	// PathSnapshot streams the merged aggregate DCG (GET, binary DCGB).
	PathSnapshot = "/v1/snapshot"
	// PathTop returns the k heaviest edges (GET ?k=).
	PathTop = "/v1/top"
	// PathSite returns one call site's receiver-target distribution
	// (GET ?id=).
	PathSite = "/v1/site"
	// PathOverlap scores an uploaded reference DCG against the store
	// with the paper's overlap metric. A read — the store is not
	// mutated — so it is GET with a body, like Elasticsearch's _search;
	// POST is 405.
	PathOverlap = "/v1/overlap"
	// PathDecay runs one decay epoch (POST ?factor=&prune=).
	PathDecay = "/v1/decay"
	// PathPlan serves the compiled inlining plan for ?program= (GET,
	// binary plan wire format, strong ETag).
	PathPlan = "/v1/plan"
	// PathMetrics reports operational counters (GET, JSON).
	PathMetrics = "/v1/metrics"
	// PathHealthz is the liveness probe (GET).
	PathHealthz = "/v1/healthz"
	// PathFlush forces a leaf daemon to forward its accumulated delta
	// upstream now (POST; 404 on a daemon with no upstream).
	PathFlush = "/v1/flush"
	// PathRegister accepts a leaf's registration/heartbeat (POST,
	// LeafStatus body).
	PathRegister = "/v1/register"
	// PathLeaves lists the leaves registered with this daemon (GET).
	PathLeaves = "/v1/leaves"
	// PathManifest registers one program version's method/site manifest
	// (POST, bytecode manifest JSON, stamped with HeaderProgram +
	// HeaderProgramVersion). The store uses manifest pairs to carry
	// profile edges forward across a version flip.
	PathManifest = "/v1/manifest"
)

// Shared header names.
const (
	// HeaderPusher carries the pusher's stable identity on ingest
	// requests; with HeaderSeq it makes ingest exactly-once. A leaf
	// daemon forwarding upstream is itself a pusher and stamps these.
	HeaderPusher = "X-Cbs-Pusher"
	// HeaderSeq carries the increment's sequence number (uint64 >= 1,
	// strictly increasing per pusher).
	HeaderSeq = "X-Cbs-Seq"
	// HeaderPlanEpoch mirrors the served plan's epoch for humans and
	// relays; the binary body remains canonical.
	HeaderPlanEpoch = "X-Plan-Epoch"
	// HeaderPlanPolicy names the inline policy the served plan was
	// compiled under.
	HeaderPlanPolicy = "X-Plan-Policy"
	// HeaderRelayStale marks a plan response served from a leaf relay's
	// cache while the root was unreachable ("1" when stale).
	HeaderRelayStale = "X-Cbs-Relay-Stale"
	// HeaderProgram names the program a pushed profile delta was
	// collected from. With HeaderProgramVersion it keys the store's
	// per-(program, version) graphs; both must be present together. A
	// push that carries neither lands in the zero key's graph.
	HeaderProgram = "X-Cbs-Program"
	// HeaderProgramVersion carries the program's content-addressed
	// version identity (bytecode.Program.Version — 16 hex chars).
	HeaderProgramVersion = "X-Cbs-Program-Version"
)

// Error codes carried in the error envelope. Coarse by design: the code
// is for programs (retry? fix the request? give up?), Msg is for
// humans.
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotFound         = "not_found"
	CodeTooLarge         = "too_large"
	CodeInternal         = "internal"
	CodeUpstream         = "upstream_unavailable"
	// CodeCapacity marks a request refused because a bounded server-side
	// ledger (e.g. the leaf registry) is full; retry later.
	CodeCapacity = "capacity"
)
