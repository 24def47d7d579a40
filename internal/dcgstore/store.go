// Package dcgstore provides the concurrent-safe dynamic call graph
// store: the aggregation point where DCG increments collected by many
// VMs (the paper's per-VM profiles, scaled out to a fleet) are merged,
// decayed, checkpointed and read while ingestion continues.
//
// A Store is the paper's organizer state and nothing more: one
// profile.DCG that increments are folded into, one ledger of per-pusher
// high-water marks (sequence.go) and four counters, all under a single
// mutex. It is deliberately not striped and keeps no second, immutable
// copy for lock-free readers, because the traffic asks for neither: the
// increments the fleet pushes are 13–410 edges against graphs of about
// 1 500, so a merge is 0.5–17 µs of map updates (bench_test.go) and any
// striping would have it take nearly every stripe; builds are already
// separate stores (Multi keeps one per program and version), so
// unrelated pushers do not meet here; and every reader — the handlers,
// the plan service, the forwarder, the checkpointer — wants a
// consistent copy of the whole graph (Snapshot, CheckpointState), which
// has to exclude writers whatever the layout. One critical section per
// operation makes each of them O(delta) or one map clone, and makes the
// consistency promises below true by construction.
package dcgstore

import (
	"sync"

	"gocbs/internal/profile"
)

// DefaultShards is accepted and ignored: the store has no shards. It
// stays only because the frozen benchmark/fleet.go names it; the next
// benchmark PR deletes it with its uses there.
const DefaultShards = 32

// Stats is a point-in-time summary of a store.
type Stats struct {
	Edges       int
	TotalWeight float64
	// SamplesIngested is the cumulative weight ever merged, before any
	// decay.
	SamplesIngested float64
	// Merges counts MergeDCG and applied MergeDCGFrom calls.
	Merges uint64
	// Epoch counts completed decay epochs.
	Epoch uint64
	// Pushers is the number of distinct pusher IDs with a tracked
	// ingest sequence.
	Pushers int
	// Duplicates counts sequenced increments rejected as already
	// applied (retries whose first attempt actually landed).
	Duplicates uint64
}

// Store is the concurrent DCG store. The zero value is not usable;
// call New.
type Store struct {
	mu    sync.Mutex
	graph *profile.DCG
	// marks is the ingest ledger: the highest sequence applied per
	// pusher (see sequence.go).
	marks map[string]uint64

	ingested   float64
	merges     uint64
	epochs     uint64
	duplicates uint64
}

// New returns an empty store.
func New() *Store {
	return &Store{graph: profile.NewDCG(), marks: make(map[string]uint64)}
}

// MergeDCG merges a collected DCG increment into the store, unsequenced
// (always applied; see MergeDCGFrom). A nil or empty graph still counts
// as one merge. Safe for concurrent use; each edge's weight is the
// exact sum of all merged contributions, and a concurrent Snapshot
// observes the merge fully applied or not at all.
func (s *Store) MergeDCG(g *profile.DCG) { s.MergeDCGFrom("", 0, g) }

// Snapshot returns a consistent point-in-time copy of the whole store.
// Its Total is the store's own running total, copied, not re-summed:
// two snapshots of an unchanged store are identical to the bit.
func (s *Store) Snapshot() *profile.DCG {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph.Clone()
}

// Decay completes one exponential-decay epoch: every weight and the
// window count are multiplied by factor (clamped to [0, 1]) and edges
// whose decayed weight does not exceed prune are dropped. The graph is
// rebuilt in canonical edge order, so the new total is a deterministic
// function of the surviving edges rather than of map iteration order
// (float addition is not associative, and plan thresholds divide by the
// total). A concurrent Snapshot sees either the pre- or the post-decay
// store. Returns the number of edges pruned.
func (s *Store) Decay(factor, prune float64) int {
	factor = min(max(factor, 0), 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.graph.NumEdges()
	s.graph = s.graph.MapWeights(func(_ profile.Edge, w float64) float64 {
		if w *= factor; w <= prune {
			return 0
		}
		return w
	})
	s.graph.SetWindows(s.graph.Windows() * factor)
	s.epochs++
	return before - s.graph.NumEdges()
}

// Version returns the store's mutation counters: merges applied and
// decay epochs completed. Nothing else changes the graph, so an
// unchanged (merges, epochs) pair means an unchanged graph, and the plan
// service serves its cached plan without a snapshot. The converse does
// not hold — every acknowledged push moves the pair, an empty one too —
// so on a changed pair the service snapshots and compares what the
// policy would see of the graph before it compiles anything.
func (s *Store) Version() (merges, epochs uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merges, s.epochs
}

// Stats returns a summary of the store as of one instant.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Edges:           s.graph.NumEdges(),
		TotalWeight:     s.graph.Total(),
		SamplesIngested: s.ingested,
		Merges:          s.merges,
		Epoch:           s.epochs,
		Pushers:         len(s.marks),
		Duplicates:      s.duplicates,
	}
}
