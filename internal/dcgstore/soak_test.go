package dcgstore

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"gocbs/internal/profile"
)

// TestConcurrentSoak is the store's race soak: K goroutines hammer the
// store with a mix of single-edge and bulk merges while readers take
// snapshots, stats and versions, and the final state must equal a serial
// reference merge of exactly the same contributions. Run under
// `go test -race` (wired into `make test-race`).
func TestConcurrentSoak(t *testing.T) {
	const (
		K     = 16  // writer goroutines
		M     = 400 // distinct edges per writer batch space
		batch = 50  // merges per writer
	)
	s := New()

	// Pre-generate each writer's work deterministically so the serial
	// reference can replay it.
	type work struct {
		singles []profile.Edge
		bulks   []*profile.DCG
	}
	jobs := make([]work, K)
	for k := range jobs {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		for i := 0; i < M; i++ {
			jobs[k].singles = append(jobs[k].singles, profile.Edge{
				Caller: rng.Intn(40), Site: rng.Intn(60), Callee: rng.Intn(40),
			})
		}
		for b := 0; b < batch; b++ {
			g := profile.NewDCG()
			for i := 0; i < 20; i++ {
				g.AddSample(profile.Edge{
					Caller: rng.Intn(40), Site: rng.Intn(60), Callee: rng.Intn(40),
				}, float64(1+rng.Intn(5)))
			}
			jobs[k].bulks = append(jobs[k].bulks, g)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: exercise every read the store offers while
	// writers run.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Stats()
				if r == 0 {
					snap := s.Snapshot()
					// A consistent snapshot's total must equal the sum
					// of its edge weights at all times.
					var sum float64
					for _, e := range snap.Edges() {
						sum += snap.Weight(e)
					}
					if d := sum - snap.Total(); d > 1e-6 || d < -1e-6 {
						t.Errorf("inconsistent snapshot: sum %v vs total %v", sum, snap.Total())
						return
					}
				} else {
					s.Version()
				}
			}
		}(r)
	}
	var writers sync.WaitGroup
	for k := 0; k < K; k++ {
		writers.Add(1)
		go func(k int) {
			defer writers.Done()
			for i, e := range jobs[k].singles {
				mergeEdge(s, e, float64(1+i%3))
			}
			for _, g := range jobs[k].bulks {
				s.MergeDCG(g)
			}
		}(k)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	// Serial reference over the identical work.
	ref := profile.NewDCG()
	for k := range jobs {
		for i, e := range jobs[k].singles {
			ref.AddSample(e, float64(1+i%3))
		}
		for _, g := range jobs[k].bulks {
			ref.Merge(g)
		}
	}

	got := s.Snapshot()
	if got.NumEdges() != ref.NumEdges() {
		t.Fatalf("edges: %d vs serial %d", got.NumEdges(), ref.NumEdges())
	}
	// Weights are sums of the same float64 terms in a different order;
	// all terms are small integers here, so sums are exact and the
	// canonical serializations must be byte-identical.
	var gb, rb bytes.Buffer
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), rb.Bytes()) {
		t.Error("concurrent store state diverged from serial reference merge")
	}
	if st := s.Stats(); st.SamplesIngested != ref.Total() {
		t.Errorf("SamplesIngested = %v, want %v", st.SamplesIngested, ref.Total())
	}
}

// TestConcurrentDecaySoak interleaves decay epochs with merges and
// checks invariants (no negative weights, snapshot self-consistency)
// rather than exact values, since epoch timing is scheduling-dependent.
func TestConcurrentDecaySoak(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 200; i++ {
				g := profile.NewDCG()
				for j := 0; j < 10; j++ {
					g.AddSample(profile.Edge{Caller: rng.Intn(20), Site: rng.Intn(30), Callee: rng.Intn(20)}, 1)
				}
				s.MergeDCG(g)
				if i%50 == 0 {
					s.Decay(0.5, 0.01)
				}
			}
		}(k)
	}
	wg.Wait()
	snap := s.Snapshot()
	var sum float64
	for _, e := range snap.Edges() {
		w := snap.Weight(e)
		if w <= 0 {
			t.Fatalf("edge %v has non-positive weight %v", e, w)
		}
		sum += w
	}
	if d := sum - snap.Total(); d > 1e-6 || d < -1e-6 {
		t.Errorf("snapshot sum %v vs total %v", sum, snap.Total())
	}
	if s.Stats().Epoch == 0 {
		t.Error("no decay epoch completed")
	}
}
