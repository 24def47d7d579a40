package profile_test

import (
	"slices"
	"sort"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// suiteGraph runs one suite program (JIT-only, small input, one run of
// main) and returns its exhaustive DCG, or with cbs its CBS one:
// sixteen samples a tick, so weights are small integers and equal
// weights the common case.
func suiteGraph(tb testing.TB, b *bench.Benchmark, cbs bool) *profile.DCG {
	tb.Helper()
	prog, err := b.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	m := vm.New(prog)
	ex := profiler.NewExhaustive()
	sampler := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: 1})
	if cbs {
		m.SetProfiler(sampler)
		m.SetTimer(20_000)
	} else {
		m.SetProfiler(ex)
	}
	if _, err := m.Run(b.Small); err != nil {
		tb.Fatalf("%s: %v", b.Name, err)
	}
	if cbs {
		return sampler.Graph
	}
	return ex.Graph
}

// TestTopEdgesOrderPinned holds TopEdges to the order it had while it
// was two sorts: the canonical edge order, then a stable sort by weight
// descending — so equal weights stay in canonical order — cut at k.
func TestTopEdgesOrderPinned(t *testing.T) {
	reference := func(g *profile.DCG, k int) []profile.Edge {
		es := g.Edges()
		sort.SliceStable(es, func(i, j int) bool { return g.Weight(es[i]) > g.Weight(es[j]) })
		if k > 0 && k < len(es) {
			es = es[:k]
		}
		return es
	}
	edges, ties := 0, 0
	check := func(name string, g *profile.DCG) {
		n := g.NumEdges()
		edges += n
		for i, es := 1, reference(g, 0); i < n; i++ {
			if g.Weight(es[i]) == g.Weight(es[i-1]) {
				ties++
			}
		}
		for _, k := range []int{0, 1, 20, n, n + 1} {
			if got, want := g.TopEdges(k), reference(g, k); !slices.Equal(got, want) {
				t.Errorf("%s: TopEdges(%d) of %d edges differs from canonical-then-stable-by-weight", name, k, n)
			}
		}
	}
	merged := profile.NewDCG()
	for _, b := range bench.All() {
		ex := suiteGraph(t, b, false)
		check(b.Name+"/exhaustive", ex)
		check(b.Name+"/cbs", suiteGraph(t, b, true))
		merged.Merge(ex)
	}
	check("merged_suite", merged)
	if ties*4 < edges {
		t.Errorf("%d of %d neighbours in weight order are equal: the tie-break is hardly exercised", ties, edges)
	}
	if got := profile.NewDCG().TopEdges(5); len(got) != 0 {
		t.Errorf("TopEdges of an empty graph = %v", got)
	}
}
