package mincover

import (
	"testing"

	"gocbs/internal/mj"
)

// TestStraightLineNeedsNoProbes: a chain of unconditional calls hangs
// entirely off anchor blocks, so every edge derives from the free
// harness entry count of main — zero probes.
func TestStraightLineNeedsNoProbes(t *testing.T) {
	src := `
int helper(int x) { return x + 1; }
int mid(int x) { return helper(x) + helper(x); }
int main(int n) { return mid(n) + helper(n); }
`
	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	c := Compute(prog)
	if c.NumProbes() != 0 {
		t.Errorf("straight-line program wants 0 probes, got %d of %d points: %v",
			c.NumProbes(), c.NumPoints(), c.Probed)
	}
	mc := FromCover(c)
	diffRun(t, prog, 5, mc)
	if err := mc.Finalize(); err != nil {
		t.Fatal(err)
	}
	exp, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want := exhaustiveRun(t, exp, 5)
	if got, w := mc.Graph.Total(), want.Total(); got != w {
		t.Errorf("recovered total %v, want %v", got, w)
	}
	if mc.Graph.NumEdges() != want.NumEdges() {
		t.Errorf("recovered %d edges, want %d", mc.Graph.NumEdges(), want.NumEdges())
	}
}

// TestConditionalCallNeedsProbe: calls under data-dependent branches
// in a loop cannot all be derived — the cover keeps a probe, and
// recovery stays exact anyway.
func TestConditionalCallNeedsProbe(t *testing.T) {
	src := `
int a(int x) { return x + 1; }
int b(int x) { return x - 1; }
int main(int n) {
	int r = 0;
	for (int i = 0; i < n; i = i + 1) {
		if (r < 10) { r = r + a(i); } else { r = r + b(i); }
	}
	return r;
}
`
	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	mc := checkExact(t, prog, 25, false)
	if mc.Cover.NumProbes() == 0 {
		t.Error("data-dependent branchy calls cannot be probe-free")
	}
}

// TestRecursionStaysExact: recursion makes entry counts circular, so
// recursive sites stay probed, but recovery must still be exact.
func TestRecursionStaysExact(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main(int n) { return fib(n); }
`
	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	checkExact(t, prog, 12, false)
}

// TestVirtualDispatchConservative: a virtual site gets one static edge
// per implementation visible from the instantiated classes; recovery
// resolves the never-taken ones to zero and stays exact.
func TestVirtualDispatchConservative(t *testing.T) {
	src := `
class Shape {
	int area(int s) { return 0; }
}
class Square extends Shape {
	int area(int s) { return s * s; }
}
class Circle extends Shape {
	int area(int s) { return 3 * s * s; }
}
int main(int n) {
	Shape sq = new Square();
	Shape ci = new Circle();
	int r = 0;
	for (int i = 0; i < n; i = i + 1) {
		if (i - i / 2 * 2 == 0) { r = r + sq.area(i); } else { r = r + ci.area(i); }
	}
	return r;
}
`
	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	g := Extract(prog)
	// main's two virtual sites each fan out over the implementations
	// reachable from the instantiated classes {Square, Circle}.
	virtEdges := 0
	for _, e := range g.Edges {
		if owner := prog.Sites[e.Site].Owner; owner >= 0 && prog.Methods[owner].Name == "$Globals.main" {
			virtEdges++
		}
	}
	if virtEdges < 4 {
		t.Errorf("expected >= 4 static edges from main's virtual sites, got %d", virtEdges)
	}
	checkExact(t, prog, 9, false)
}
