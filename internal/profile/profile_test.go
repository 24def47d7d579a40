package profile

import (
	"math"
	"testing"
	"testing/quick"
)

func edge(c, s, e int) Edge { return Edge{Caller: c, Site: s, Callee: e} }

func TestDCGBasics(t *testing.T) {
	g := NewDCG()
	if g.NumEdges() != 0 || g.Total() != 0 {
		t.Fatal("new DCG not empty")
	}
	g.AddSample(edge(1, 10, 2), 3)
	g.AddSample(edge(1, 10, 2), 1)
	g.AddSample(edge(1, 11, 3), 4)
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.Weight(edge(1, 10, 2)) != 4 {
		t.Errorf("weight = %v, want 4", g.Weight(edge(1, 10, 2)))
	}
	if g.Total() != 8 {
		t.Errorf("total = %v, want 8", g.Total())
	}
	if p := g.Percent(edge(1, 11, 3)); p != 50 {
		t.Errorf("percent = %v, want 50", p)
	}
}

func TestAddSampleIgnoresNonPositive(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 1, 2), 0)
	g.AddSample(edge(1, 1, 2), -5)
	if g.NumEdges() != 0 || g.Total() != 0 {
		t.Error("non-positive weights should be ignored")
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(2, 5, 1), 1)
	g.AddSample(edge(1, 9, 4), 1)
	g.AddSample(edge(1, 3, 2), 1)
	es := g.Edges()
	want := []Edge{edge(1, 3, 2), edge(1, 9, 4), edge(2, 5, 1)}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges()[%d] = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestSiteDistribution(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 7, 2), 60)
	g.AddSample(edge(1, 7, 3), 30)
	g.AddSample(edge(1, 7, 4), 10)
	g.AddSample(edge(1, 8, 5), 100) // other site, ignored
	d := g.SiteDistribution(7)
	if len(d) != 3 {
		t.Fatalf("distribution has %d targets, want 3", len(d))
	}
	if d[0].Callee != 2 || d[0].Percent != 60 {
		t.Errorf("top target = %+v, want callee 2 at 60%%", d[0])
	}
	if d[2].Callee != 4 || d[2].Percent != 10 {
		t.Errorf("last target = %+v", d[2])
	}
}

func TestSiteWeightPercent(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 7, 2), 25)
	g.AddSample(edge(1, 7, 3), 25)
	g.AddSample(edge(1, 8, 5), 50)
	if p := g.SiteWeightPercent(7); p != 50 {
		t.Errorf("site 7 weight = %v%%, want 50", p)
	}
	if p := g.SiteWeightPercent(99); p != 0 {
		t.Errorf("missing site weight = %v%%, want 0", p)
	}
}

func TestOverlapIdentical(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 1, 2), 5)
	g.AddSample(edge(2, 2, 3), 15)
	if o := Overlap(g, g); math.Abs(o-100) > 1e-9 {
		t.Errorf("self-overlap = %v, want 100", o)
	}
	// Scaling all weights does not change the distribution.
	h := NewDCG()
	h.AddSample(edge(1, 1, 2), 50)
	h.AddSample(edge(2, 2, 3), 150)
	if o := Overlap(g, h); math.Abs(o-100) > 1e-9 {
		t.Errorf("scaled overlap = %v, want 100", o)
	}
}

func TestOverlapDisjoint(t *testing.T) {
	a := NewDCG()
	a.AddSample(edge(1, 1, 2), 5)
	b := NewDCG()
	b.AddSample(edge(3, 3, 4), 5)
	if o := Overlap(a, b); o != 0 {
		t.Errorf("disjoint overlap = %v, want 0", o)
	}
}

func TestOverlapPartial(t *testing.T) {
	// a: e1 50%, e2 50%. b: e1 100%. Common info: min(50,100) = 50.
	a := NewDCG()
	a.AddSample(edge(1, 1, 2), 10)
	a.AddSample(edge(1, 2, 3), 10)
	b := NewDCG()
	b.AddSample(edge(1, 1, 2), 99)
	if o := Overlap(a, b); math.Abs(o-50) > 1e-9 {
		t.Errorf("overlap = %v, want 50", o)
	}
}

func TestOverlapEmpty(t *testing.T) {
	a, b := NewDCG(), NewDCG()
	if Overlap(a, b) != 0 {
		t.Error("empty graphs should overlap 0")
	}
	b.AddSample(edge(1, 1, 2), 1)
	if Overlap(a, b) != 0 {
		t.Error("empty vs non-empty should overlap 0")
	}
}

// Property: overlap is symmetric and bounded in [0,100].
func TestOverlapProperties(t *testing.T) {
	build := func(ws []uint8) *DCG {
		g := NewDCG()
		for i, w := range ws {
			if w > 0 {
				g.AddSample(edge(i%5, i%7, i%3), float64(w))
			}
		}
		return g
	}
	f := func(ws1, ws2 []uint8) bool {
		a, b := build(ws1), build(ws2)
		o1, o2 := Overlap(a, b), Overlap(b, a)
		if math.Abs(o1-o2) > 1e-6 {
			return false
		}
		return o1 >= 0 && o1 <= 100+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: self-overlap of any non-empty graph is 100.
func TestSelfOverlapAlways100(t *testing.T) {
	f := func(ws []uint8) bool {
		g := NewDCG()
		any := false
		for i, w := range ws {
			if w > 0 {
				g.AddSample(edge(i, i*2, i*3), float64(w))
				any = true
			}
		}
		if !any {
			return Overlap(g, g) == 0
		}
		return math.Abs(Overlap(g, g)-100) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an edge present only in the sampled graph cannot
// increase accuracy.
func TestSpuriousEdgeLowersAccuracy(t *testing.T) {
	perfect := NewDCG()
	perfect.AddSample(edge(1, 1, 2), 80)
	perfect.AddSample(edge(1, 2, 3), 20)

	sampled := NewDCG()
	sampled.AddSample(edge(1, 1, 2), 8)
	sampled.AddSample(edge(1, 2, 3), 2)
	before := Accuracy(sampled, perfect)

	sampled.AddSample(edge(9, 9, 9), 5) // spurious
	after := Accuracy(sampled, perfect)
	if after >= before {
		t.Errorf("spurious edge should lower accuracy: before %v, after %v", before, after)
	}
}

func TestCloneAndMerge(t *testing.T) {
	a := NewDCG()
	a.AddSample(edge(1, 1, 2), 5)
	c := a.Clone()
	c.AddSample(edge(1, 1, 2), 5)
	if a.Weight(edge(1, 1, 2)) != 5 {
		t.Error("clone aliases original")
	}
	b := NewDCG()
	b.AddSample(edge(1, 1, 2), 1)
	b.AddSample(edge(2, 2, 3), 7)
	a.Merge(b)
	if a.Weight(edge(1, 1, 2)) != 6 || a.Weight(edge(2, 2, 3)) != 7 || a.Total() != 13 {
		t.Errorf("merge wrong: %v", a.Dump(nil, nil))
	}
}

func TestDumpContainsEdges(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 4, 2), 3)
	g.SetWindows(2)
	out := g.Dump(func(id int) string { return map[int]string{1: "main", 2: "work"}[id] }, nil)
	for _, want := range []string{"main", "DCG: 1 edges, total weight 3, 2 windows\n"} {
		if !contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCCTAddPathAndFlatten(t *testing.T) {
	cct := NewCCT()
	// main --s1--> a --s2--> b   (weight 3)
	// main --s1--> a             (weight 1)
	// main --s3--> c --s2--> b   (weight 2)
	cct.AddPath([]PathStep{{1, 10}, {2, 20}, {3, 30}}, 3)
	cct.AddPath([]PathStep{{1, 10}, {2, 20}}, 1)
	cct.AddPath([]PathStep{{1, 10}, {4, 40}, {3, 30}}, 2)

	if cct.Total() != 6 {
		t.Errorf("total = %v, want 6", cct.Total())
	}
	if n := cct.NumNodes(); n != 5 {
		t.Errorf("nodes = %d, want 5", n)
	}

	flat := cct.Flatten()
	// Edge (20, s3, 30) gets 3; (10, s2, 20) gets 1; (40, s3, 30) gets 2.
	if w := flat.Weight(Edge{Caller: 20, Site: 3, Callee: 30}); w != 3 {
		t.Errorf("flattened weight = %v, want 3", w)
	}
	if w := flat.Weight(Edge{Caller: 40, Site: 3, Callee: 30}); w != 2 {
		t.Errorf("flattened weight = %v, want 2", w)
	}
	// The same callee under two contexts stays separate in the CCT but
	// both flatten onto edges keyed by their distinct callers.
	if flat.NumEdges() != 3 {
		t.Errorf("flattened edges = %d, want 3", flat.NumEdges())
	}
}

func TestCCTContextSeparation(t *testing.T) {
	// DCG merges a->b under two different roots; CCT keeps them apart.
	cct := NewCCT()
	cct.AddPath([]PathStep{{1, 10}, {5, 99}}, 1) // 10 --s5--> 99
	cct.AddPath([]PathStep{{2, 20}, {5, 99}}, 1) // 20 --s5--> 99
	if cct.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4 (contexts kept separate)", cct.NumNodes())
	}
}

func TestOverlapCCTIdenticalAndDisjoint(t *testing.T) {
	a := NewCCT()
	a.AddPath([]PathStep{{1, 10}, {2, 20}}, 4)
	a.AddPath([]PathStep{{1, 10}}, 4)
	if o := OverlapCCT(a, a); math.Abs(o-100) > 1e-9 {
		t.Errorf("self overlap = %v", o)
	}
	b := NewCCT()
	b.AddPath([]PathStep{{9, 90}}, 4)
	if o := OverlapCCT(a, b); o != 0 {
		t.Errorf("disjoint overlap = %v", o)
	}
}

func TestOverlapCCTPartial(t *testing.T) {
	a := NewCCT()
	a.AddPath([]PathStep{{1, 10}}, 1)
	a.AddPath([]PathStep{{2, 20}}, 1)
	b := NewCCT()
	b.AddPath([]PathStep{{1, 10}}, 1)
	if o := OverlapCCT(a, b); math.Abs(o-50) > 1e-9 {
		t.Errorf("overlap = %v, want 50", o)
	}
}

func TestCCTChildrenDeterministic(t *testing.T) {
	c := NewCCT()
	c.AddPath([]PathStep{{3, 30}}, 1)
	c.AddPath([]PathStep{{1, 10}}, 1)
	c.AddPath([]PathStep{{2, 20}}, 1)
	kids := c.Root.Children()
	if len(kids) != 3 || kids[0].Site != 1 || kids[1].Site != 2 || kids[2].Site != 3 {
		t.Errorf("children order wrong: %+v", kids)
	}
}
