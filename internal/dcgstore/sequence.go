package dcgstore

import (
	"maps"

	"gocbs/internal/profile"
)

// Ingest idempotency.
//
// A pusher streams non-overlapping DCG increments to the daemon, but
// HTTP gives it only at-least-once delivery: a push whose response is
// lost (timeout, dropped connection) may or may not have been merged,
// and blindly re-sending it risks double-counting every edge in the
// delta. To make retries safe, each increment is stamped with a
// (pusher ID, sequence number) pair — headers on /ingest — and the
// store tracks the highest sequence applied per pusher. A pusher sends
// its increments strictly in order and retries one increment until it
// is acknowledged, so an arriving sequence at or below the high-water
// mark is an increment that was already applied (the response was
// lost) and is dropped instead of re-merged. Unstamped merges keep the
// old at-most-once semantics.
//
// The high-water marks are part of the checkpoint (see checkpoint.go):
// restoring a graph without its sequences would let a post-restart
// retry double-count, and restoring sequences ahead of the graph would
// reject a legitimate increment. The marks live under the same mutex as
// the graph: a mark is checked and advanced in the critical section
// that applies its increment, and CheckpointState copies both in one,
// so the two always agree.

// maxPusherIDLen bounds pusher IDs so a hostile client cannot grow the
// sequence table (or the checkpoint's marks) without bound per entry.
const maxPusherIDLen = 128

// ValidPusherID reports whether id is acceptable as a pusher identity:
// non-empty, at most maxPusherIDLen bytes, and limited to a charset
// that is the same in a header, a log line and the checkpoint (no
// spaces or control characters).
func ValidPusherID(id string) bool {
	if id == "" || len(id) > maxPusherIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':':
		default:
			return false
		}
	}
	return true
}

// MergeDCGFrom merges g as increment seq from pusher (both taken from
// the /ingest headers) and reports whether the increment was applied.
// An empty pusher ID is an unsequenced merge: always applied, no mark
// kept. A sequence at or below the pusher's high-water mark is a
// duplicate of an increment that already landed — the merge is skipped
// and false is returned, fixing the double count a retrying pusher
// would otherwise cause. An applied increment counts one merge even
// when g is nil or empty: the plan cache keys on Version, and a push
// that moved a mark must not look like no push. Safe for concurrent
// use.
func (s *Store) MergeDCGFrom(pusher string, seq uint64, g *profile.DCG) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pusher != "" {
		if seq <= s.marks[pusher] {
			s.duplicates++
			return false
		}
		s.marks[pusher] = seq
	}
	if g != nil {
		s.graph.Merge(g)
		s.ingested += g.Total()
	}
	s.merges++
	return true
}

// RestoreSequences seeds high-water marks from a loaded checkpoint.
// Existing marks are only ever raised, so restoring cannot reopen a
// window for an already-deduplicated increment.
func (s *Store) RestoreSequences(seqs map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, high := range seqs {
		s.marks[id] = max(s.marks[id], high)
	}
}

// CheckpointState returns a mutually consistent (graph, sequences)
// pair, both copied inside one critical section of the store's mutex —
// the one every merge checks and advances its mark in — so the graph
// contains an increment if and only if the sequence map records it.
func (s *Store) CheckpointState() (*profile.DCG, map[string]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.graph.Clone(), maps.Clone(s.marks)
}
