package dcgstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"gocbs/internal/profile"
)

// The sizes the store meets: the repo benchmark's recorded CBS deltas
// are 13–410 edges (median near 100), and the largest per-build graph
// they accumulate into is about 1 500.
const benchGraphEdges = 1500

var benchDeltaEdges = []int{13, 100, 410}

// benchDCG returns n distinct edges with small integer weights, a subset
// of the benchGraphEdges-edge graph for every n up to that: a delta
// lands mostly on edges the store already has, as a real one does.
func benchDCG(n int) *profile.DCG {
	g := profile.NewDCG()
	for i := 0; i < n; i++ {
		j := i * benchGraphEdges / n
		g.AddSample(edge(j%61, j, (j*7)%67), float64(1+j%5))
	}
	return g
}

// benchStore returns a store holding benchDCG(edges) and 64 pusher marks.
func benchStore(edges int) *Store {
	s := New()
	s.MergeDCG(benchDCG(edges))
	for p := 0; p < 64; p++ {
		s.MergeDCGFrom(fmt.Sprintf("seed-%d", p), 1, nil)
	}
	return s
}

// BenchmarkStoreMergeDCGFrom times one sequenced merge — check the mark,
// fold the delta in, advance — of a 13, 100 and 410-edge delta into a
// 1 500-edge store: the testing.B twin of the repo benchmark's
// dcgstore.merge_us_p50 row (and of the merge inside
// daemon.ingest_handler_p50_ms). The parallel variant has two pushers
// merge into the one store at GOMAXPROCS 2, the box's CPU count and the
// benchmark's pusher count: what two pushes for one build cost each
// other.
func BenchmarkStoreMergeDCGFrom(b *testing.B) {
	for _, n := range benchDeltaEdges {
		delta := benchDCG(n)
		b.Run(fmt.Sprintf("edges=%d", n), func(b *testing.B) {
			s := benchStore(benchGraphEdges)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !s.MergeDCGFrom("bench", uint64(i+1), delta) {
					b.Fatal("increment refused")
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/edges=%d", n), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			s := benchStore(benchGraphEdges)
			var pushers atomic.Int32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := fmt.Sprintf("bench-%d", pushers.Add(1))
				for seq := uint64(1); pb.Next(); seq++ {
					if !s.MergeDCGFrom(id, seq, delta) {
						b.Error("increment refused")
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreSnapshot times a consistent copy of a per-build store at
// the graph sizes the deltas build up to: the twin of
// dcgstore.snapshot_us_p50 (what a plan pull after a push, /v1/snapshot
// and the forwarder each pay before doing anything else).
func BenchmarkStoreSnapshot(b *testing.B) {
	for _, n := range append(benchDeltaEdges, benchGraphEdges) {
		b.Run(fmt.Sprintf("graph=%d", n), func(b *testing.B) {
			s := benchStore(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Snapshot().NumEdges() != n {
					b.Fatal("snapshot lost edges")
				}
			}
		})
	}
}

// BenchmarkStoreCheckpointState times the (graph, marks) capture a
// checkpoint starts with, at the same graph sizes and 65 pusher marks:
// the in-memory part of dcgstore.checkpoint_save_ms, and the whole of
// what a checkpoint makes concurrent pushes wait for.
func BenchmarkStoreCheckpointState(b *testing.B) {
	for _, n := range append(benchDeltaEdges, benchGraphEdges) {
		b.Run(fmt.Sprintf("graph=%d", n), func(b *testing.B) {
			s := benchStore(n)
			s.MergeDCGFrom("bench", 1, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if g, marks := s.CheckpointState(); g.NumEdges() != n || len(marks) != 65 {
					b.Fatal("checkpoint state lost edges or marks")
				}
			}
		})
	}
}
