package profile

import (
	"math"
	"testing"
)

func TestMapWeights(t *testing.T) {
	g := NewDCG()
	g.AddSample(Edge{Caller: 1, Site: 1, Callee: 2}, 8)
	g.AddSample(Edge{Caller: 1, Site: 2, Callee: 3}, 2)

	halved := g.MapWeights(func(_ Edge, w float64) float64 { return w / 2 })
	if got := halved.Weight(Edge{Caller: 1, Site: 1, Callee: 2}); got != 4 {
		t.Errorf("mapped weight = %v, want 4", got)
	}
	if halved.Total() != 5 {
		t.Errorf("mapped total = %v, want 5", halved.Total())
	}

	dropped := g.MapWeights(func(e Edge, w float64) float64 {
		if e.Site == 2 {
			return 0 // non-positive drops the edge
		}
		return w
	})
	if dropped.NumEdges() != 1 || dropped.Total() != 8 {
		t.Errorf("drop-mapping kept %d edges, total %v; want 1 edge, total 8", dropped.NumEdges(), dropped.Total())
	}
	// The receiver is untouched.
	if g.NumEdges() != 2 || g.Total() != 10 {
		t.Errorf("MapWeights mutated its receiver: %d edges, total %v", g.NumEdges(), g.Total())
	}
}

// TestMapsTo: MapsTo(other, f) is MapWeights(f) compared edge for edge
// with other, whichever way the two differ.
func TestMapsTo(t *testing.T) {
	g := NewDCG()
	g.AddSample(Edge{Caller: 1, Site: 1, Callee: 2}, 8)
	g.AddSample(Edge{Caller: 1, Site: 2, Callee: 3}, 2)
	g.AddSample(Edge{Caller: 2, Site: 3, Callee: 4}, 0.5)
	f := func(_ Edge, w float64) float64 {
		if w < 1 {
			return 0
		}
		return math.Floor(w / 2)
	}
	want := g.MapWeights(f)
	if !g.MapsTo(want, f) {
		t.Fatal("a graph does not map to its own MapWeights")
	}
	if g.MapsTo(want, func(_ Edge, w float64) float64 { return w }) {
		t.Error("the identity maps to the halved graph")
	}

	for what, change := range map[string]func(*DCG){
		"an edge heavier":    func(o *DCG) { o.AddSample(Edge{Caller: 1, Site: 1, Callee: 2}, 1) },
		"an edge more":       func(o *DCG) { o.AddSample(Edge{Caller: 9, Site: 9, Callee: 9}, 1) },
		"a dropped edge had": func(o *DCG) { o.AddSample(Edge{Caller: 2, Site: 3, Callee: 4}, 1) },
	} {
		other := want.Clone()
		change(other)
		if g.MapsTo(other, f) {
			t.Errorf("maps to a graph with %s", what)
		}
	}
	// One edge fewer on the other side, by a map that keeps it here.
	if g.MapsTo(want, func(_ Edge, w float64) float64 { return math.Floor(w/2) + 1 }) {
		t.Error("maps to a graph that lacks an edge the map keeps")
	}
	if empty := NewDCG(); !empty.MapsTo(NewDCG(), f) || empty.MapsTo(want, f) || g.MapsTo(empty, f) {
		t.Error("the empty graph maps to the empty graph and to nothing else")
	}
}

// TestSiteAggregationOrderIndependent: two graphs holding the same
// edges, inserted in different orders, must agree bit-for-bit on every
// derived site quantity — float addition is not associative, so this
// only holds because the aggregations sum in canonical edge order.
func TestSiteAggregationOrderIndependent(t *testing.T) {
	// Awkward weights whose sum is order-sensitive in the last ulp.
	edges := []struct {
		e Edge
		w float64
	}{
		{Edge{Caller: 1, Site: 7, Callee: 10}, 0.1},
		{Edge{Caller: 2, Site: 7, Callee: 11}, 1e16},
		{Edge{Caller: 3, Site: 7, Callee: 12}, 0.2},
		{Edge{Caller: 4, Site: 7, Callee: 13}, 0.3},
		{Edge{Caller: 5, Site: 9, Callee: 14}, 3.7},
	}
	a := NewDCG()
	for i := 0; i < len(edges); i++ {
		a.AddSample(edges[i].e, edges[i].w)
	}
	b := NewDCG()
	for i := len(edges) - 1; i >= 0; i-- {
		b.AddSample(edges[i].e, edges[i].w)
	}

	below := func(_ Edge, w float64) float64 {
		if w < 0.15 {
			return 0
		}
		return w
	}
	fa, fb := a.MapWeights(below), b.MapWeights(below)
	if math.Float64bits(fa.Total()) != math.Float64bits(fb.Total()) {
		t.Errorf("MapWeights totals differ: %x vs %x",
			math.Float64bits(fa.Total()), math.Float64bits(fb.Total()))
	}
	for _, site := range []int{7, 9} {
		pa, pb := fa.SiteWeightPercent(site), fb.SiteWeightPercent(site)
		if math.Float64bits(pa) != math.Float64bits(pb) {
			t.Errorf("site %d: SiteWeightPercent differs: %v vs %v", site, pa, pb)
		}
		da, db := fa.SiteDistribution(site), fb.SiteDistribution(site)
		if len(da) != len(db) {
			t.Fatalf("site %d: distribution lengths differ", site)
		}
		for i := range da {
			if da[i] != db[i] {
				t.Errorf("site %d entry %d: %+v vs %+v", site, i, da[i], db[i])
			}
		}
	}
}
