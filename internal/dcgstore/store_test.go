package dcgstore

import (
	"bytes"
	"math"
	"testing"

	"gocbs/internal/profile"
)

func edge(c, s, t int) profile.Edge { return profile.Edge{Caller: c, Site: s, Callee: t} }

// mergeEdge seeds s with one edge the way every writer reaches a store:
// as a merged increment.
func mergeEdge(s *Store, e profile.Edge, w float64) {
	g := profile.NewDCG()
	g.AddSample(e, w)
	s.MergeDCG(g)
}

func TestMergeAndReadBack(t *testing.T) {
	s := New()
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 5)
	g.AddSample(edge(1, 2, 3), 0)  // ignored
	g.AddSample(edge(1, 2, 3), -1) // ignored
	g.AddSample(edge(4, 5, 6), 15)
	s.MergeDCG(g)

	snap := s.Snapshot()
	if w := snap.Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("Weight = %v, want 5", w)
	}
	if tw := snap.Total(); tw != 20 {
		t.Errorf("Total = %v, want 20", tw)
	}
	if n := snap.NumEdges(); n != 2 {
		t.Errorf("NumEdges = %d, want 2", n)
	}
	if p := snap.Percent(edge(4, 5, 6)); math.Abs(p-75) > 1e-12 {
		t.Errorf("Percent = %v, want 75", p)
	}
	if st := s.Stats(); st.SamplesIngested != 20 || st.Edges != 2 || st.TotalWeight != 20 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestMergeDCGMatchesSerialMerge(t *testing.T) {
	a := profile.NewDCG()
	a.AddSample(edge(1, 2, 3), 4)
	a.AddSample(edge(2, 3, 4), 6)
	b := profile.NewDCG()
	b.AddSample(edge(1, 2, 3), 1)
	b.AddSample(edge(9, 9, 9), 2)

	s := New()
	s.MergeDCG(a)
	s.MergeDCG(b)
	s.MergeDCG(nil) // counted, harmless

	ref := profile.NewDCG()
	ref.Merge(a)
	ref.Merge(b)

	var sb, rb bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), rb.Bytes()) {
		t.Error("store snapshot diverged from serial merge")
	}
	if st := s.Stats(); st.Merges != 3 {
		t.Errorf("Merges = %d, want 3", st.Merges)
	}
	if w := s.Snapshot().Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("post-merge Weight = %v, want 5", w)
	}
}

func TestDecayEpochs(t *testing.T) {
	s := New()
	mergeEdge(s, edge(1, 1, 1), 100)
	mergeEdge(s, edge(2, 2, 2), 1)

	pruned := s.Decay(0.5, 1) // 1*0.5 <= 1 prunes the light edge
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1", pruned)
	}
	snap := s.Snapshot()
	if w := snap.Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("decayed weight = %v, want 50", w)
	}
	if w := snap.Weight(edge(2, 2, 2)); w != 0 {
		t.Errorf("pruned edge still weighs %v", w)
	}
	if tw := snap.Total(); tw != 50 {
		t.Errorf("decayed total = %v, want 50", tw)
	}
	// Cumulative ingest stats are not rewritten by decay.
	if st := s.Stats(); st.Epoch != 1 || st.SamplesIngested != 101 {
		t.Errorf("Epoch, SamplesIngested = %d, %v; want 1, 101", st.Epoch, st.SamplesIngested)
	}

	// Factor clamping: Decay(>1) must not inflate weights.
	s.Decay(2, 0)
	if w := s.Snapshot().Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("Decay(2) changed weight to %v", w)
	}
	// Decay(0) empties the store.
	s.Decay(0, 0)
	if st := s.Stats(); st.Edges != 0 || st.TotalWeight != 0 {
		t.Errorf("Decay(0) left %d edges, total %v", st.Edges, st.TotalWeight)
	}
}

func TestSnapshotIsConsistentAndDetached(t *testing.T) {
	s := New()
	mergeEdge(s, edge(1, 1, 1), 3)
	snap := s.Snapshot()
	mergeEdge(s, edge(1, 1, 1), 7) // must not leak into the snapshot
	if snap.Weight(edge(1, 1, 1)) != 3 || snap.Total() != 3 {
		t.Errorf("snapshot not detached: %v/%v", snap.Weight(edge(1, 1, 1)), snap.Total())
	}
}

// TestSnapshotTotalReproducible pins that an unchanged store reads the
// same: after decay has made the weights fractional, every Snapshot
// must carry the bit-identical Total (float addition is not
// associative, so a total re-summed in map-iteration order moves in the
// last ulp from call to call), and Stats must report that same total.
// plan.Compile's thresholds divide by it, so a total that flickers can
// flap a decision on a graph nobody touched.
func TestSnapshotTotalReproducible(t *testing.T) {
	s := New()
	g := profile.NewDCG()
	for i := 0; i < 400; i++ {
		g.AddSample(edge(i%37, i, (i*7)%41), 1+float64(i%13)+float64(i)/7)
	}
	s.MergeDCG(g)
	s.Decay(0.7, 0)
	s.Decay(0.7, 0)

	want := s.Snapshot().Total()
	for i := 1; i < 50; i++ {
		if got := s.Snapshot().Total(); got != want {
			t.Fatalf("snapshot %d of an unchanged store: Total() = %v (%#x), first snapshot read %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got := s.Stats().TotalWeight; got != want {
		t.Errorf("Stats().TotalWeight = %v (%#x), Snapshot().Total() = %v (%#x)",
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}
