package profile_test

import (
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/profile"
)

var topSink []profile.Edge

// BenchmarkTopEdges is the sort under /v1/top?k=20 (the repo
// benchmark's daemon.top_ms_p50): the 20 heaviest edges of javac's
// exhaustive graph, and of the whole suite's merged — the view an
// unkeyed read gets.
func BenchmarkTopEdges(b *testing.B) {
	merged := profile.NewDCG()
	for _, bm := range bench.All() {
		merged.Merge(suiteGraph(b, bm, false))
	}
	for _, c := range []struct {
		name string
		g    *profile.DCG
	}{{"javac", suiteGraph(b, bench.ByName("javac"), false)}, {"merged_suite", merged}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topSink = c.g.TopEdges(20)
			}
		})
	}
}

// cbsSuite is every suite program's CBS graph (small input, seed 1, a
// tick every 20 000 cycles) and the number of edges they hold together.
func cbsSuite(b *testing.B) ([]*profile.DCG, float64) {
	var graphs []*profile.DCG
	var edges float64
	for _, bm := range bench.All() {
		g := suiteGraph(b, bm, true)
		graphs = append(graphs, g)
		edges += float64(g.NumEdges())
	}
	return graphs, edges
}

// perKedge reports the benchmark's time per op in microseconds per
// thousand edges, the unit of the repo benchmark's profile rows.
func perKedge(b *testing.B, edges float64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)/(edges/1000), "us/kedge")
}

var bytesSink []byte

// BenchmarkEncode is the twin of profile.encode_us_per_kedge: every suite
// program's CBS graph encoded once per op.
func BenchmarkEncode(b *testing.B) {
	graphs, edges := cbsSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			bytesSink = g.Encode()
		}
	}
	perKedge(b, edges)
}

// BenchmarkDecode is the twin of profile.decode_us_per_kedge: the same
// graphs' bytes decoded once per op.
func BenchmarkDecode(b *testing.B) {
	graphs, edges := cbsSuite(b)
	bodies := make([][]byte, len(graphs))
	for i, g := range graphs {
		bodies[i] = g.Encode()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			if _, err := profile.DecodeDCGBytes(body); err != nil {
				b.Fatal(err)
			}
		}
	}
	perKedge(b, edges)
}

// BenchmarkMerge is the twin of profile.merge_us_per_kedge: the same
// graphs merged into one empty accumulator once per op.
func BenchmarkMerge(b *testing.B) {
	graphs, edges := cbsSuite(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := profile.NewDCG()
		for _, g := range graphs {
			acc.Merge(g)
		}
	}
	perKedge(b, edges)
}

var overlapSink float64

// BenchmarkOverlap is the twin of profile.overlap_us_per_kedge: each of
// the same graphs scored against their merge once per op.
func BenchmarkOverlap(b *testing.B) {
	graphs, edges := cbsSuite(b)
	merged := profile.NewDCG()
	for _, g := range graphs {
		merged.Merge(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			overlapSink = profile.Overlap(merged, g)
		}
	}
	perKedge(b, edges)
}
