// Package federation implements the two-level cbsd aggregation tier:
// rendezvous routing of keys onto leaf daemons (Router), the
// leaf's exactly-once upstream forwarder (Forwarder), and the root's
// leaf ledger (Registry). A leaf is just a big pusher: it forwards its
// merged weight upstream as stamped increments over the same
// idempotent delta protocol VMs use, so exactly-once ingest and
// checkpoint/restart semantics compose across levels for free.
package federation

import (
	"hash/fnv"
	"sort"
)

// Router assigns keys to leaves with rendezvous (highest-random-
// weight) hashing: a key lands on the leaf whose hash(leaf, key) score
// is highest. Unlike mod-N hashing, removing or adding a leaf only
// re-routes the keys whose winning leaf changed — every other key keeps
// its leaf, which keeps pusher sequence streams pinned and re-route
// churn minimal (the property TestRoutingStableUnderLeafChanges pins
// down).
//
// Nothing in cbsd or cbsvm routes: a pusher pushes to the one URL it is
// given. The fleet simulator is the one caller, and it routes by pusher
// name, so one program's pushers may sit on different leaves and only
// the root holds the program's whole graph.
type Router struct {
	leaves []string
}

// NewRouter returns a router over the given leaf names (base URLs in
// production, actor names in the simulator). Order does not matter;
// the leaf set is defensively copied and deduplicated.
func NewRouter(leaves []string) *Router {
	seen := make(map[string]bool, len(leaves))
	uniq := make([]string, 0, len(leaves))
	for _, l := range leaves {
		if !seen[l] {
			seen[l] = true
			uniq = append(uniq, l)
		}
	}
	sort.Strings(uniq)
	return &Router{leaves: uniq}
}

// Leaves returns the router's leaf set, sorted.
func (r *Router) Leaves() []string {
	out := make([]string, len(r.leaves))
	copy(out, r.leaves)
	return out
}

// score is the rendezvous weight of (leaf, program): a 64-bit FNV-1a
// over both strings with a separator byte so ("ab","c") and ("a","bc")
// never collide, passed through an avalanche finalizer.
//
// The finalizer is load-bearing. FNV-1a's per-byte step is
// h = (h ^ b) * prime, so for two leaves hashed as prefixes the score
// difference is approximately (hA - hB) * prime^len(program) — near
// constant across all programs of one length, which parks every
// same-length key (vm-00, vm-01, ...) on a single leaf. The
// xorshift-multiply avalanche breaks that linearity so cross-leaf
// comparisons genuinely depend on the program.
func score(leaf, program string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(leaf))
	h.Write([]byte{0})
	h.Write([]byte(program))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Stafford variant 13).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Route returns the leaf that owns program, or "" when the router has
// no leaves. Ties (astronomically unlikely) break toward the
// lexicographically smaller leaf so the choice is total and stable.
func (r *Router) Route(program string) string {
	var best string
	var bestScore uint64
	for _, leaf := range r.leaves {
		if s := score(leaf, program); best == "" || s > bestScore {
			best, bestScore = leaf, s
		}
	}
	return best
}
