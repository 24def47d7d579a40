package dcgstore

import (
	"bytes"
	"math"
	"testing"

	"gocbs/internal/profile"
)

func edge(c, s, t int) profile.Edge { return profile.Edge{Caller: c, Site: s, Callee: t} }

func TestNewRoundsShardsUpToPowerOfTwo(t *testing.T) {
	cases := map[int]int{-1: DefaultShards, 0: DefaultShards, 1: 1, 2: 2, 3: 4, 17: 32, 32: 32}
	for in, want := range cases {
		if got := New(in).Stats().Shards; got != want {
			t.Errorf("New(%d).Stats().Shards = %d, want %d", in, got, want)
		}
	}
}

func TestAddSampleAndLockFreeReads(t *testing.T) {
	s := New(4)
	s.AddSample(edge(1, 2, 3), 5)
	s.AddSample(edge(1, 2, 3), 0)  // ignored
	s.AddSample(edge(1, 2, 3), -1) // ignored
	s.AddSample(edge(4, 5, 6), 15)

	// Published snapshots may trail single-sample writes; Sync makes
	// the lock-free read path current.
	s.Sync()
	if w := s.Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("Weight = %v, want 5", w)
	}
	if tw := s.TotalWeight(); tw != 20 {
		t.Errorf("TotalWeight = %v, want 20", tw)
	}
	if n := s.NumEdges(); n != 2 {
		t.Errorf("NumEdges = %d, want 2", n)
	}
	if p := s.Percent(edge(4, 5, 6)); math.Abs(p-75) > 1e-12 {
		t.Errorf("Percent = %v, want 75", p)
	}
	if st := s.Stats(); st.SamplesIngested != 20 || st.Edges != 2 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestAddSamplePublishesAfterThreshold(t *testing.T) {
	s := New(1) // single shard so the write counter is easy to drive
	for i := 0; i < publishEvery; i++ {
		s.AddSample(edge(1, 1, 1), 1)
	}
	// publishEvery writes hit the auto-publish path: reads see them
	// without an intervening Sync or merge.
	if w := s.Weight(edge(1, 1, 1)); w != publishEvery {
		t.Errorf("after %d writes Weight = %v, want %d", publishEvery, w, publishEvery)
	}
}

func TestMergeDCGMatchesSerialMerge(t *testing.T) {
	a := profile.NewDCG()
	a.AddSample(edge(1, 2, 3), 4)
	a.AddSample(edge(2, 3, 4), 6)
	b := profile.NewDCG()
	b.AddSample(edge(1, 2, 3), 1)
	b.AddSample(edge(9, 9, 9), 2)

	s := New(8)
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
	// Bulk merges publish immediately: lock-free reads are current.
	if w := s.Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("post-merge Weight = %v, want 5", w)
	}
}

func TestDecayEpochs(t *testing.T) {
	s := New(4)
	s.AddSample(edge(1, 1, 1), 100)
	s.AddSample(edge(2, 2, 2), 1)
	s.Sync()

	pruned := s.Decay(0.5, 1) // 1*0.5 <= 1 prunes the light edge
	if pruned != 1 {
		t.Errorf("pruned = %d, want 1", pruned)
	}
	if w := s.Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("decayed weight = %v, want 50", w)
	}
	if w := s.Weight(edge(2, 2, 2)); w != 0 {
		t.Errorf("pruned edge still weighs %v", w)
	}
	if tw := s.TotalWeight(); tw != 50 {
		t.Errorf("decayed total = %v, want 50", tw)
	}
	if s.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", s.Epoch())
	}
	// Cumulative ingest stats are not rewritten by decay.
	if st := s.Stats(); st.SamplesIngested != 101 {
		t.Errorf("SamplesIngested = %v, want 101", st.SamplesIngested)
	}

	// Factor clamping: Decay(>1) must not inflate weights.
	s.Decay(2, 0)
	if w := s.Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("Decay(2) changed weight to %v", w)
	}
	// Decay(0) empties the store.
	s.Decay(0, 0)
	if s.NumEdges() != 0 || s.TotalWeight() != 0 {
		t.Errorf("Decay(0) left %d edges, total %v", s.NumEdges(), s.TotalWeight())
	}
}

func TestSnapshotIsConsistentAndDetached(t *testing.T) {
	s := New(4)
	s.AddSample(edge(1, 1, 1), 3)
	snap := s.Snapshot()
	s.AddSample(edge(1, 1, 1), 7) // must not leak into the snapshot
	if snap.Weight(edge(1, 1, 1)) != 3 || snap.Total() != 3 {
		t.Errorf("snapshot not detached: %v/%v", snap.Weight(edge(1, 1, 1)), snap.Total())
	}
}

func TestEdgeHashSpreadsConsecutiveIDs(t *testing.T) {
	s := New(8)
	hit := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		hit[edgeHash(edge(i, i+1, i+2))&s.mask] = true
	}
	if len(hit) < 6 {
		t.Errorf("64 consecutive edges landed on only %d of 8 shards", len(hit))
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
	s := New(0)
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
