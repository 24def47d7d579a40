package api

import (
	"sort"

	"gocbs/internal/profile"
)

// ProgramKey identifies one build of one program: the name plus its
// content-addressed version (bytecode.Program.Version). It is the
// store's sharding key for per-version call graphs and the plan
// cache's scoping key. The zero key names the stream of pushes that
// carry no program identity: a key like any other to the store, the
// checkpoint and the forwarder, spelled on the wire by omitting the
// identity headers.
type ProgramKey struct {
	Program string `json:"program"`
	Version string `json:"version"`
}

// IsZero reports whether the key carries no identity.
func (k ProgramKey) IsZero() bool { return k.Program == "" && k.Version == "" }

// String renders the key in its canonical "program@version" spelling —
// the form used in persistence file names and cache-map keys. '@' is
// excluded from both the program-name and version alphabets, so the
// rendering splits back unambiguously.
func (k ProgramKey) String() string { return k.Program + "@" + k.Version }

// SortedKeys lists m's keys in the canonical order every persisted or
// forwarded key list uses: the zero key first, then builds by their
// "program@version" spelling.
func SortedKeys[V any](m map[ProgramKey]V) []ProgramKey {
	keys := make([]ProgramKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].IsZero() != keys[j].IsZero() {
			return keys[i].IsZero()
		}
		return keys[i].String() < keys[j].String()
	})
	return keys
}

// ValidProgramVersion bounds a wire-supplied version string: lowercase
// hex, 1-64 chars (the generator emits exactly 16). Every keyed request
// passes through it.
func ValidProgramVersion(v string) bool {
	if len(v) < 1 || len(v) > 64 {
		return false
	}
	for i := 0; i < len(v); i++ {
		if c := v[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ManifestResponse acknowledges one registered program-version
// manifest.
type ManifestResponse struct {
	Registered bool `json:"registered"`
	// CarriedEdges counts edges carried forward into this version from
	// its predecessor's graph (0 when there is no predecessor or no
	// method survived unchanged).
	CarriedEdges int `json:"carried_edges"`
	// CarriedWeight is those edges' total weight.
	CarriedWeight float64 `json:"carried_weight"`
}

// IngestResponse acknowledges one merged (or deduplicated) delta.
type IngestResponse struct {
	// Applied is true when the delta was merged; Duplicate is its
	// complement — the (pusher, seq) stamp had already been applied, so
	// the daemon acknowledged without re-merging.
	Applied      bool    `json:"applied"`
	Duplicate    bool    `json:"duplicate"`
	MergedEdges  int     `json:"merged_edges"`
	MergedWeight float64 `json:"merged_weight"`
	StoreEdges   int     `json:"store_edges"`
	StoreWeight  float64 `json:"store_weight"`
}

// Edge is one weighted call edge in a TopResponse.
type Edge struct {
	Caller  int     `json:"caller"`
	Site    int     `json:"site"`
	Callee  int     `json:"callee"`
	Weight  float64 `json:"weight"`
	Percent float64 `json:"percent"`
}

// TopResponse lists the k heaviest edges of the current snapshot, with
// its total weight and the sampling windows that filled it (DCG.Windows:
// how many draws a site's share stands on, 0 if its pushers do not count
// them).
type TopResponse struct {
	Edges       []Edge  `json:"edges"`
	TotalWeight float64 `json:"total_weight"`
	Windows     float64 `json:"windows"`
}

// SiteResponse is one call site's receiver-target distribution — the
// guarded-inlining input of the paper, served over HTTP.
type SiteResponse struct {
	Site         int                    `json:"site"`
	SiteWeightPc float64                `json:"site_weight_pc"`
	Targets      []profile.TargetWeight `json:"targets"`
}

// OverlapResponse scores an uploaded reference DCG against the store
// with the paper's overlap metric.
type OverlapResponse struct {
	Overlap        float64 `json:"overlap"`
	StoreEdges     int     `json:"store_edges"`
	ReferenceEdges int     `json:"reference_edges"`
}

// DecayResponse reports one on-demand decay epoch.
type DecayResponse struct {
	Epoch       uint64 `json:"epoch"`
	PrunedEdges int    `json:"pruned_edges"`
}

// MetricsResponse is the daemon's operational-counter digest. The
// store figures sum every substore, default and per-build. ingest_lat
// appears once at least one ingest has been observed; plan appears
// when the plan service is enabled (on a leaf, when the relay is
// enabled).
type MetricsResponse struct {
	Edges           int     `json:"edges"`
	TotalWeight     float64 `json:"total_weight"`
	SamplesIngested float64 `json:"samples_ingested"`
	Merges          uint64  `json:"merges"`
	DecayEpoch      uint64  `json:"decay_epoch"`
	Pushers         int     `json:"pushers"`
	Ingests         uint64  `json:"ingests"`
	IngestErrors    uint64  `json:"ingest_errors"`
	IngestDups      uint64  `json:"ingest_duplicates"`
	MergeMsTotal    float64 `json:"merge_ms_total"`
	MergeMsMean     float64 `json:"merge_ms_mean"`
	UptimeS         float64 `json:"uptime_s"`

	IngestLat *LatencyMetrics `json:"ingest_lat,omitempty"`
	Plan      *PlanMetrics    `json:"plan,omitempty"`
	Forward   *ForwardMetrics `json:"forward,omitempty"`

	// ProgramVersions counts the distinct (program, version) graphs the
	// store currently keeps (0 on a daemon that has only seen unstamped
	// pushes).
	ProgramVersions int `json:"program_versions,omitempty"`
	// VersionSubstoresEvicted counts retired (program, version)
	// substores the TTL garbage collector has dropped since start —
	// versions the fleet rolled off of whose graphs went idle.
	VersionSubstoresEvicted uint64 `json:"version_substores_evicted,omitempty"`
}

// LatencyMetrics is a histogram digest in milliseconds.
type LatencyMetrics struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// PlanMetrics covers the plan service (root) or plan relay (leaf).
type PlanMetrics struct {
	Programs int `json:"programs"`
	// Computed and Unchanged count compilations (a new epoch; the prior
	// verbatim). Skipped counts pulls that came after a push but found
	// the conditioned graph where the cached plan was compiled from it,
	// and compiled nothing. A pull that is none of the three found the
	// store's counters unmoved.
	Computed  uint64 `json:"computed"`
	Unchanged uint64 `json:"unchanged"`
	Skipped   uint64 `json:"skipped"`
	// CompileErrors counts compilations that failed, not requests for a
	// program or build that does not exist (RequestErrors has those).
	CompileErrors uint64 `json:"compile_errors"`
	Requests      uint64 `json:"requests"`
	NotModified   uint64 `json:"not_modified"`
	RequestErrors uint64 `json:"request_errors"`
	// Relay-only: conditional refreshes against the root and responses
	// served stale because the root was unreachable.
	RelayRefreshes uint64 `json:"relay_refreshes,omitempty"`
	RelayStale     uint64 `json:"relay_stale,omitempty"`
	// VersionMismatches counts plan requests refused because the
	// requested program version is unknown to this daemon.
	VersionMismatches uint64 `json:"version_mismatches,omitempty"`
}

// ForwardMetrics covers a leaf's upstream forwarder.
type ForwardMetrics struct {
	// Seq is the highest sequence number pushed upstream; Pending is
	// how many captured increments await acknowledgement.
	Seq       uint64  `json:"seq"`
	Pending   int     `json:"pending"`
	Forwards  uint64  `json:"forwards"`
	Errors    uint64  `json:"errors"`
	AckEdges  int     `json:"ack_edges"`
	AckWeight float64 `json:"ack_weight"`
}

// FlushResponse reports one forced leaf→root forward cycle.
type FlushResponse struct {
	// Forwarded is true when every captured increment (including any
	// newly captured by this flush) was acknowledged upstream.
	Forwarded bool `json:"forwarded"`
	// Seq is the highest sequence number acknowledged upstream;
	// Pending counts increments still queued (non-zero only when the
	// upstream push failed).
	Seq     uint64 `json:"seq"`
	Pending int    `json:"pending"`
	// Edges/Weight describe the increment captured by this flush
	// (zero when the store had nothing new).
	Edges  int     `json:"edges"`
	Weight float64 `json:"weight"`
}

// LeafStatus is one leaf's registration/heartbeat body and the root's
// per-leaf ledger entry.
type LeafStatus struct {
	// ID is the leaf's upstream pusher identity — the X-Cbs-Pusher
	// value its forwarded increments are stamped with.
	ID string `json:"id"`
	// Addr is the leaf's own base URL, so tools can walk the tree.
	Addr string `json:"addr,omitempty"`
	// Seq is the highest sequence the leaf has pushed upstream.
	Seq uint64 `json:"seq"`
	// Edges/Weight describe the leaf's acknowledged cumulative graph.
	Edges  int     `json:"edges"`
	Weight float64 `json:"weight"`
}

// RegisterResponse acknowledges a leaf registration.
type RegisterResponse struct {
	Registered bool `json:"registered"`
	// Leaves is the root's current registered-leaf count.
	Leaves int `json:"leaves"`
}

// LeavesResponse lists the leaves registered with a root, sorted by ID.
type LeavesResponse struct {
	Leaves []LeafStatus `json:"leaves"`
}

// PlanResult is a conditional plan fetch's outcome. Body is the binary
// plan wire format (nil on NotModified); decoding it is the plan
// package's business — api stays below plan in the import graph so
// plan.Client can wrap api.Client.
type PlanResult struct {
	Body        []byte
	ETag        string
	NotModified bool
	// Epoch and Policy mirror the response headers.
	Epoch  uint64
	Policy string
	// Stale is true when a leaf relay served its cache because the
	// root was unreachable.
	Stale bool
}
