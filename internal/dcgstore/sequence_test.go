package dcgstore

import (
	"fmt"
	"sync"
	"testing"

	"gocbs/internal/profile"
)

func TestMergeDCGFromDeduplicatesRetries(t *testing.T) {
	s := New()
	inc := profile.NewDCG()
	inc.AddSample(edge(1, 2, 3), 5)

	if !s.MergeDCGFrom("p-a", 1, inc) {
		t.Fatal("first increment rejected")
	}
	// A retry of seq 1 (response lost) must not double-count.
	if s.MergeDCGFrom("p-a", 1, inc) {
		t.Error("retried seq 1 applied twice")
	}
	if w := s.Snapshot().Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("weight after retry = %v, want 5", w)
	}
	// The next sequence goes through; an older one never does.
	if !s.MergeDCGFrom("p-a", 2, inc) {
		t.Error("seq 2 rejected")
	}
	if s.MergeDCGFrom("p-a", 1, inc) {
		t.Error("stale seq 1 applied after seq 2")
	}
	// A different pusher has its own sequence space.
	if !s.MergeDCGFrom("p-b", 1, inc) {
		t.Error("other pusher's seq 1 rejected")
	}
	if w := s.Snapshot().Weight(edge(1, 2, 3)); w != 15 {
		t.Errorf("final weight = %v, want 15", w)
	}
	st := s.Stats()
	if st.Duplicates != 2 || st.Pushers != 2 {
		t.Errorf("Stats duplicates/pushers = %d/%d, want 2/2", st.Duplicates, st.Pushers)
	}
}

func TestMergeDCGFromUnstampedAlwaysApplies(t *testing.T) {
	s := New()
	inc := profile.NewDCG()
	inc.AddSample(edge(1, 1, 1), 1)
	for i := 0; i < 3; i++ {
		if !s.MergeDCGFrom("", 0, inc) {
			t.Fatal("unstamped merge rejected")
		}
	}
	if w := s.Snapshot().Weight(edge(1, 1, 1)); w != 3 {
		t.Errorf("weight = %v, want 3 (unstamped merges are at-least-once by design)", w)
	}
	// A nil or empty graph is still a merge: it counts and it bumps
	// Version, which is all the plan cache looks at to decide whether a
	// store has seen a push since the plan it holds.
	for _, g := range []*profile.DCG{nil, profile.NewDCG()} {
		before, _ := s.Version()
		if !s.MergeDCGFrom("", 0, g) {
			t.Fatalf("unstamped merge of %v rejected", g)
		}
		if after, _ := s.Version(); after != before+1 {
			t.Errorf("merge of %v moved Version from %d to %d, want +1", g, before, after)
		}
	}
	if st := s.Stats(); st.Merges != 5 || st.SamplesIngested != 3 || st.Pushers != 0 {
		t.Errorf("Stats = %+v, want 5 merges, 3 ingested, no pushers", st)
	}
}

func TestValidPusherID(t *testing.T) {
	valid := []string{"p-1", "a", "host.example:8944", "A_b-c.d:e", "p-0123456789abcdef"}
	for _, id := range valid {
		if !ValidPusherID(id) {
			t.Errorf("ValidPusherID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", "has space", "tab\there", "new\nline", "slash/y", "per%cent",
		string(make([]byte, maxPusherIDLen+1))}
	for _, id := range invalid {
		if ValidPusherID(id) {
			t.Errorf("ValidPusherID(%q) = true, want false", id)
		}
	}
}

func TestRestoreSequencesOnlyRaises(t *testing.T) {
	s := New()
	inc := profile.NewDCG()
	inc.AddSample(edge(1, 1, 1), 1)
	s.MergeDCGFrom("p", 5, inc)
	s.RestoreSequences(map[string]uint64{"p": 3, "q": 7})
	_, got := s.CheckpointState()
	if got["p"] != 5 || got["q"] != 7 {
		t.Errorf("restored marks = %v, want p:5 q:7", got)
	}
}

// TestConcurrentSequencedIngestWithRetries hammers the sequenced path
// from many pushers, each re-sending every increment several times (as
// an aggressive retry storm would), and checks the store equals the
// serial merge of each increment applied exactly once. Run under
// -race via `make test-race`.
func TestConcurrentSequencedIngestWithRetries(t *testing.T) {
	const (
		K    = 12 // pushers
		incs = 60 // increments per pusher
	)
	s := New()

	// Each pusher k sends increments touching a pusher-specific edge
	// plus a shared edge, every one re-sent 3 times.
	increment := func(k, i int) *profile.DCG {
		g := profile.NewDCG()
		g.AddSample(edge(k, 0, k), float64(i+1))
		g.AddSample(edge(99, 99, 99), 1)
		return g
	}
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			id := fmt.Sprintf("p-%d", k)
			for i := 0; i < incs; i++ {
				g := increment(k, i)
				applied := 0
				for try := 0; try < 3; try++ {
					if s.MergeDCGFrom(id, uint64(i+1), g) {
						applied++
					}
				}
				if applied != 1 {
					t.Errorf("pusher %d seq %d applied %d times", k, i+1, applied)
					return
				}
			}
		}(k)
	}
	wg.Wait()

	ref := profile.NewDCG()
	for k := 0; k < K; k++ {
		for i := 0; i < incs; i++ {
			ref.Merge(increment(k, i))
		}
	}
	got := s.Snapshot()
	if got.NumEdges() != ref.NumEdges() || got.Total() != ref.Total() {
		t.Fatalf("store %d edges/%v weight, serial %d edges/%v weight",
			got.NumEdges(), got.Total(), ref.NumEdges(), ref.Total())
	}
	if w, want := got.Weight(edge(99, 99, 99)), float64(K*incs); w != want {
		t.Errorf("shared edge weight = %v, want %v", w, want)
	}
}

// TestCheckpointStateIsMutuallyConsistent takes checkpoints while
// sequenced merges run and asserts the invariant persistence relies
// on: for every pusher, the captured graph holds exactly the weight of
// the increments the captured sequence map records — never one without
// the other.
func TestCheckpointStateIsMutuallyConsistent(t *testing.T) {
	const K = 8
	s := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			id := fmt.Sprintf("p-%d", k)
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Every increment adds weight 1 to the pusher's own
				// edge, so weight(edge k) must always equal seqs[k].
				g := profile.NewDCG()
				g.AddSample(edge(k, 1, 1), 1)
				s.MergeDCGFrom(id, uint64(i), g)
			}
		}(k)
	}
	for n := 0; n < 200; n++ {
		g, seqs := s.CheckpointState()
		for k := 0; k < K; k++ {
			id := fmt.Sprintf("p-%d", k)
			if w, want := g.Weight(edge(k, 1, 1)), float64(seqs[id]); w != want {
				t.Fatalf("checkpoint %d: pusher %s graph weight %v vs sequence %v", n, id, w, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}
