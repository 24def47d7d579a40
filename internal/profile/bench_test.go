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
