package daemon

import (
	"sort"
	"sync"
	"time"

	"gocbs/internal/api"
)

// maxLeaves caps how many leaves a registry holds. Registration is an
// unauthenticated upsert served by every daemon, so without a cap a
// client minting distinct IDs could grow the map — and the memory
// behind it — without bound. Far above any real tree fan-in.
const maxLeaves = 1024

// leafTTL is how long a leaf entry stays fresh without a heartbeat.
// Entries older than this are evicted (lazily, when the registry is
// full and needs room, and on List) — they are dead leaves or garbage,
// not members of the tree.
const leafTTL = 15 * time.Minute

// leafRegistry is the root daemon's leaf ledger: which leaves exist,
// where they live, and how far their forwarded sequence streams have
// progressed. Registration is an upsert keyed by the leaf's upstream
// pusher identity — a leaf heartbeats the same body it registered
// with, so a restarted leaf that resumed its persisted sequence stream
// simply overwrites its previous entry. The ledger is advisory: the
// delta protocol, not the registry, carries correctness, so bounding
// it (maxLeaves, leafTTL) loses nothing but stale bookkeeping.
type leafRegistry struct {
	mu     sync.Mutex
	leaves map[string]leafEntry
	// now is the clock, swappable by tests.
	now func() time.Time
}

// leafEntry pairs a leaf's last heartbeat body with when it arrived.
type leafEntry struct {
	status api.LeafStatus
	seen   time.Time
}

// newLeafRegistry returns an empty registry.
func newLeafRegistry() *leafRegistry {
	return &leafRegistry{leaves: make(map[string]leafEntry), now: time.Now}
}

// Register upserts a leaf and returns the registered-leaf count. A new
// leaf arriving at a full registry first evicts entries whose last
// heartbeat is older than leafTTL; if the registry is still full, the
// registration is refused (ok=false) — heartbeats from known leaves
// always land.
func (r *leafRegistry) Register(st api.LeafStatus) (n int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.leaves[st.ID]; !known && len(r.leaves) >= maxLeaves {
		r.evictStaleLocked()
		if len(r.leaves) >= maxLeaves {
			return len(r.leaves), false
		}
	}
	r.leaves[st.ID] = leafEntry{status: st, seen: r.now()}
	return len(r.leaves), true
}

// evictStaleLocked drops every entry whose last heartbeat is older
// than leafTTL.
func (r *leafRegistry) evictStaleLocked() {
	cutoff := r.now().Add(-leafTTL)
	for id, e := range r.leaves {
		if e.seen.Before(cutoff) {
			delete(r.leaves, id)
		}
	}
}

// List returns the live (heartbeat within leafTTL) leaves sorted by
// ID, evicting the stale ones it passes over.
func (r *leafRegistry) List() []api.LeafStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictStaleLocked()
	out := make([]api.LeafStatus, 0, len(r.leaves))
	for _, e := range r.leaves {
		out = append(out, e.status)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the registered-leaf count (stale entries included until
// something evicts them).
func (r *leafRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.leaves)
}
