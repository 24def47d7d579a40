package dcgstore

import (
	"math"
	"sync"
	"testing"

	"gocbs/internal/profile"
)

// TestSnapshotNeverSplitsMerge is the regression test for merge
// atomicity. One writer repeatedly merges the same 32-edge graph G;
// concurrent Snapshot calls must only ever observe an exact multiple of
// G — per edge and in total. A merge and a snapshot are one critical
// section each; this holds whatever layout the store has to that.
func TestSnapshotNeverSplitsMerge(t *testing.T) {
	s := New()

	g := profile.NewDCG()
	const edges = 32
	for i := 0; i < edges; i++ {
		g.AddSample(profile.Edge{Caller: i, Site: 100 + i, Callee: 200 + i}, 1)
	}

	const merges = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < merges; i++ {
			s.MergeDCG(g)
		}
	}()

	for {
		select {
		case <-done:
			if got := s.Snapshot().Total(); got != float64(edges*merges) {
				t.Fatalf("final total %v, want %v", got, edges*merges)
			}
			return
		default:
		}
		snap := s.Snapshot()
		// Every edge of G must have the identical weight n (the number
		// of merges this cut observed), and the total must be n*|G|.
		n := snap.Weight(profile.Edge{Caller: 0, Site: 100, Callee: 200})
		if n != math.Trunc(n) {
			t.Fatalf("edge weight %v is not an integral merge count", n)
		}
		for i := 0; i < edges; i++ {
			e := profile.Edge{Caller: i, Site: 100 + i, Callee: 200 + i}
			if w := snap.Weight(e); w != n {
				t.Fatalf("torn merge observed: edge %d has weight %v while edge 0 has %v", i, w, n)
			}
		}
		if total := snap.Total(); total != n*edges {
			t.Fatalf("torn merge observed: total %v with per-edge weight %v", total, n)
		}
	}
}

// TestDecayRacingWritersProperty is the decay-epoch property test:
// concurrent single-edge writers, Snapshot readers, and a decayer run
// against one store, and every observation must satisfy
//
//   - internal consistency: a snapshot's total equals the sum of its
//     edge weights (a consistent cut, not a mix of epochs), and
//   - the decay bound: the final total lies in
//     [ingested * factor^epochs, ingested] — decay only shrinks
//     weight, and no sample can be decayed more often than the number
//     of completed epochs.
//
// Run under -race (the Makefile's test-race target includes this
// package) this doubles as the memory-safety soak for Decay vs the
// write and snapshot paths.
func TestDecayRacingWritersProperty(t *testing.T) {
	const (
		writers       = 4
		perWriter     = 3_000
		sampleWeight  = 2.0
		decayFactor   = 0.5
		decayEpochs   = 5
		snapshotReads = 200
	)
	s := New()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := profile.Edge{Caller: w, Site: i % 97, Callee: (i * 7) % 89}
				mergeEdge(s, e, sampleWeight)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < decayEpochs; i++ {
			s.Decay(decayFactor, 0)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snapshotReads; i++ {
			snap := s.Snapshot()
			var sum float64
			for _, e := range snap.Edges() {
				w := snap.Weight(e)
				if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					t.Errorf("snapshot edge %v has invalid weight %v", e, w)
					return
				}
				sum += w
			}
			if total := snap.Total(); math.Abs(total-sum) > 1e-6*math.Max(1, sum) {
				t.Errorf("inconsistent snapshot: total %v != edge sum %v", total, sum)
				return
			}
		}
	}()
	wg.Wait()

	if got := s.Stats().Epoch; got != decayEpochs {
		t.Fatalf("epochs completed = %d, want %d", got, decayEpochs)
	}
	ingested := float64(writers*perWriter) * sampleWeight
	if got := s.Stats().SamplesIngested; got != ingested {
		t.Fatalf("SamplesIngested = %v, want %v", got, ingested)
	}
	total := s.Snapshot().Total()
	lower := ingested * math.Pow(decayFactor, decayEpochs)
	if total < lower-1e-6 || total > ingested+1e-6 {
		t.Fatalf("final total %v outside decay bound [%v, %v]", total, lower, ingested)
	}
}
