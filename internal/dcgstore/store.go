// Package dcgstore provides a sharded, concurrent-safe dynamic call
// graph store: the aggregation point where DCG snapshots collected by
// many VMs (the paper's per-VM profiles, scaled out to a fleet) are
// merged, decayed, and queried while ingestion continues.
//
// The store is lock-striped: edges are distributed over N shards by a
// mixed hash of the (caller, site, callee) triple, and each shard has
// its own mutex, weight map, and local total, so concurrent writers
// touching different shards never contend. Reads (Weight, Percent,
// TotalWeight, NumEdges) are lock-free: they only load each shard's
// last *published* immutable snapshot through an atomic pointer.
// Writers republish a shard's snapshot after every bulk merge and
// after every publishEvery single-sample writes, so lock-free reads
// trail writes by a bounded amount; Sync forces publication
// everywhere, and Snapshot locks all shards at once for a consistent
// point-in-time cut.
package dcgstore

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"gocbs/internal/profile"
)

// DefaultShards is the shard count used when New is given n <= 0.
// 32 shards keep cross-shard lock contention negligible for tens of
// concurrent pushers while keeping Snapshot's all-shards lock cheap.
const DefaultShards = 32

// publishEvery bounds how many AddSample writes a shard accepts before
// it republishes its read snapshot, i.e. how stale the lock-free read
// path can get between bulk merges.
const publishEvery = 256

// shardSnap is an immutable published view of one shard. Readers load
// it atomically and never mutate it; writers build a fresh copy.
type shardSnap struct {
	weights map[profile.Edge]float64
	total   float64
}

var emptySnap = &shardSnap{weights: map[profile.Edge]float64{}}

type shard struct {
	mu      sync.Mutex
	weights map[profile.Edge]float64
	total   float64
	dirty   int // writes since last publish
	snap    atomic.Pointer[shardSnap]
}

// publishLocked copies the live state into a fresh immutable snapshot.
// Callers must hold sh.mu.
func (sh *shard) publishLocked() {
	cp := make(map[profile.Edge]float64, len(sh.weights))
	for e, w := range sh.weights {
		cp[e] = w
	}
	sh.snap.Store(&shardSnap{weights: cp, total: sh.total})
	sh.dirty = 0
}

// Stats is a point-in-time summary of a store.
type Stats struct {
	Shards      int
	Edges       int
	TotalWeight float64
	// SamplesIngested is the cumulative weight ever added, before any
	// decay (AddSample + MergeDCG contributions).
	SamplesIngested float64
	// Merges counts MergeDCG calls.
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

// Store is the sharded concurrent DCG store. The zero value is not
// usable; call New.
type Store struct {
	shards []shard
	mask   uint64

	ingested atomicFloat64
	merges   atomic.Uint64
	epoch    atomic.Uint64

	// ckptMu makes a checkpoint's (graph, sequence) pair mutually
	// consistent: sequenced merges hold it shared for the whole
	// check-merge-advance critical section, and CheckpointState holds
	// it exclusively, so a checkpoint never captures a merge whose
	// high-water mark it missed (or vice versa). See sequence.go.
	ckptMu sync.RWMutex
	// seqMu guards the pushers map itself; each entry has its own lock.
	seqMu      sync.Mutex
	pushers    map[string]*pusherSeq
	duplicates atomic.Uint64
}

// New returns a store with at least n shards (rounded up to a power of
// two so shard selection is a mask; n <= 0 selects DefaultShards).
func New(n int) *Store {
	if n <= 0 {
		n = DefaultShards
	}
	size := 1
	for size < n {
		size <<= 1
	}
	s := &Store{
		shards:  make([]shard, size),
		mask:    uint64(size - 1),
		pushers: make(map[string]*pusherSeq),
	}
	for i := range s.shards {
		s.shards[i].weights = make(map[profile.Edge]float64)
		s.shards[i].snap.Store(emptySnap)
	}
	return s
}

// edgeHash mixes the three edge coordinates (splitmix64-style finalizer
// over a combination of the fields) so consecutive IDs spread across
// shards instead of striping.
func edgeHash(e profile.Edge) uint64 {
	h := uint64(int64(e.Caller))*0x9E3779B97F4A7C15 ^
		uint64(int64(e.Site))*0xBF58476D1CE4E5B9 ^
		uint64(int64(e.Callee))*0x94D049BB133111EB
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

func (s *Store) shardFor(e profile.Edge) *shard {
	return &s.shards[edgeHash(e)&s.mask]
}

// AddSample adds weight w to edge e; non-positive weights are ignored
// (matching profile.DCG.AddSample). Safe for concurrent use.
func (s *Store) AddSample(e profile.Edge, w float64) {
	if w <= 0 {
		return
	}
	sh := s.shardFor(e)
	sh.mu.Lock()
	sh.weights[e] += w
	sh.total += w
	sh.dirty++
	if sh.dirty >= publishEvery {
		sh.publishLocked()
	}
	sh.mu.Unlock()
	s.ingested.Add(w)
}

// MergeDCG bulk-merges a collected DCG snapshot into the store. Edges
// are grouped by shard first, then every touched shard is locked
// simultaneously — in index order, the same order lockAll uses, so
// merges cannot deadlock against Snapshot, Decay, or each other — the
// whole snapshot is applied, and each shard republishes its read view
// before the locks drop. Holding all touched shards at once is what
// makes Snapshot's consistency promise true: a concurrent Snapshot
// observes this merge fully applied or not at all, never split across
// shards. Zero-weight edges are skipped, mirroring profile.DCG.Merge.
// Safe for concurrent use; each edge's weight is the exact sum of all
// merged contributions.
func (s *Store) MergeDCG(g *profile.DCG) {
	if g == nil || g.NumEdges() == 0 {
		s.merges.Add(1)
		return
	}
	byShard := make(map[int][]profile.Edge, len(s.shards))
	for _, e := range g.Edges() {
		i := int(edgeHash(e) & s.mask)
		byShard[i] = append(byShard[i], e)
	}
	idxs := make([]int, 0, len(byShard))
	for i := range byShard {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		s.shards[i].mu.Lock()
	}
	var added float64
	for _, i := range idxs {
		sh := &s.shards[i]
		for _, e := range byShard[i] {
			w := g.Weight(e)
			if w <= 0 {
				continue
			}
			sh.weights[e] += w
			sh.total += w
			added += w
		}
		sh.publishLocked()
	}
	for _, i := range idxs {
		s.shards[i].mu.Unlock()
	}
	s.ingested.Add(added)
	s.merges.Add(1)
}

// Weight returns e's weight as of the shard's last published snapshot.
// Lock-free: never blocks writers.
func (s *Store) Weight(e profile.Edge) float64 {
	return s.shardFor(e).snap.Load().weights[e]
}

// TotalWeight returns the total weight across all shards' published
// snapshots. Lock-free; under concurrent writes the per-shard
// snapshots may be from slightly different instants.
func (s *Store) TotalWeight() float64 {
	var t float64
	for i := range s.shards {
		t += s.shards[i].snap.Load().total
	}
	return t
}

// NumEdges returns the number of distinct edges across all published
// snapshots. Lock-free.
func (s *Store) NumEdges() int {
	var n int
	for i := range s.shards {
		n += len(s.shards[i].snap.Load().weights)
	}
	return n
}

// Percent returns e's published weight as a percentage (0–100) of the
// published total, the normalization the overlap metric uses.
// Lock-free.
func (s *Store) Percent(e profile.Edge) float64 {
	t := s.TotalWeight()
	if t == 0 {
		return 0
	}
	return s.Weight(e) / t * 100
}

// Sync republishes every shard's read snapshot, making the lock-free
// read path exactly current with all writes that completed before the
// call.
func (s *Store) Sync() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.publishLocked()
		sh.mu.Unlock()
	}
}

// lockAll acquires every shard lock in index order (a fixed order, so
// concurrent lockAll callers cannot deadlock) and returns the unlock
// function.
func (s *Store) lockAll() func() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	return func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
}

// Snapshot returns a consistent point-in-time copy of the whole store
// as a profile.DCG: all shards are locked simultaneously, so no merge
// is ever observed half-applied across shards. Each shard's read
// snapshot is republished while held.
func (s *Store) Snapshot() *profile.DCG {
	unlock := s.lockAll()
	defer unlock()
	g := profile.NewDCG()
	for i := range s.shards {
		sh := &s.shards[i]
		for e, w := range sh.weights {
			g.AddSample(e, w)
		}
		sh.publishLocked()
	}
	return g
}

// Decay completes one exponential-decay epoch: every weight is
// multiplied by factor (clamped to [0, 1]), edges whose decayed weight
// falls below prune are dropped, and shard totals are recomputed from
// the surviving edges. The whole epoch runs with all shards locked, so
// a concurrent Snapshot sees either the pre- or post-decay store,
// never a mix. Returns the number of edges pruned.
func (s *Store) Decay(factor, prune float64) int {
	if factor < 0 {
		factor = 0
	}
	if factor > 1 {
		factor = 1
	}
	unlock := s.lockAll()
	defer unlock()
	pruned := 0
	for i := range s.shards {
		sh := &s.shards[i]
		var total float64
		for e, w := range sh.weights {
			w *= factor
			if w <= prune || w <= 0 {
				delete(sh.weights, e)
				pruned++
				continue
			}
			sh.weights[e] = w
			total += w
		}
		sh.total = total
		sh.publishLocked()
	}
	s.epoch.Add(1)
	return pruned
}

// Epoch returns the number of completed decay epochs.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// Version returns the store's bulk-mutation counters: MergeDCG calls
// applied and decay epochs completed. An unchanged (merges, epochs)
// pair means no bulk merge or decay has landed since, which lets the
// plan service serve cached plans without re-snapshotting the graph.
// Direct AddSample writes do not bump either counter; version-based
// caching is only sound for stores mutated through merges and decay
// (cbsd's ingest path is exactly that).
func (s *Store) Version() (merges, epochs uint64) {
	return s.merges.Load(), s.epoch.Load()
}

// Stats returns a lock-free summary built from published snapshots and
// the store's cumulative counters.
func (s *Store) Stats() Stats {
	s.seqMu.Lock()
	pushers := len(s.pushers)
	s.seqMu.Unlock()
	return Stats{
		Shards:          len(s.shards),
		Edges:           s.NumEdges(),
		TotalWeight:     s.TotalWeight(),
		SamplesIngested: s.ingested.Load(),
		Merges:          s.merges.Load(),
		Epoch:           s.epoch.Load(),
		Pushers:         pushers,
		Duplicates:      s.duplicates.Load(),
	}
}

// atomicFloat64 is a CAS-loop float64 accumulator (stdlib atomics have
// no float variant).
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (a *atomicFloat64) Add(delta float64) {
	for {
		old := a.bits.Load()
		next := math.Float64frombits(old) + delta
		if a.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (a *atomicFloat64) Load() float64 { return math.Float64frombits(a.bits.Load()) }
