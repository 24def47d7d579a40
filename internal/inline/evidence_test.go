package inline

import (
	"math"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
)

// familySrc has one method family of four implementations, called at two
// virtual sites of main.
const familySrc = `
	class Shape { int area(int x) { return x; } }
	class Circle extends Shape { int area(int x) { return x * 3; } }
	class Square extends Shape { int area(int x) { return x * x; } }
	class Hex extends Shape { int area(int x) { return x + 6; } }
	int main(int n) {
		Shape a = new Circle();
		Shape b = new Square();
		int acc = 0;
		for (int i = 0; i < n; i = i + 1) {
			acc = acc + a.area(i) + b.area(i);
		}
		return acc;
	}
`

// priorsAt returns π_c of every callee the graph holds at site.
func priorsAt(prog *bytecode.Program, g *profile.DCG, site int) map[int]float64 {
	ev := NewEvidence(prog, g)
	s := ev.sites[site]
	out := map[int]float64{}
	for i, t := range s.targets {
		out[t.callee] = ev.prior(s, &s.targets[i])
	}
	return out
}

// TestPriorLeavesTheSiteOut: a site's prior is what the rest of its
// family says, never what the site itself says. Permuting the site's own
// receiver weights leaves the prior of every callee where it was; a site
// alone in its family has the uniform prior over the family's
// implementations; and one sample anywhere else in the family moves it
// by at most 1/(1+α). With the site in its own prior, a site alone in its
// family read its own samples back as the prior: one sample was "100 %"
// twice over.
func TestPriorLeavesTheSiteOut(t *testing.T) {
	prog, err := mj.Compile(familySrc)
	if err != nil {
		t.Fatal(err)
	}
	main := prog.MethodByName("$Globals.main")
	var sites []int
	for _, cs := range ScanCalls(prog, main) {
		if cs.Op == bytecode.OpCallVirtual {
			sites = append(sites, cs.Site)
		}
	}
	if len(sites) != 2 {
		t.Fatalf("%d virtual sites in main, want 2", len(sites))
	}
	at, elsewhere := sites[0], sites[1]
	var impls []int
	for _, name := range []string{"Shape.area", "Circle.area", "Square.area", "Hex.area"} {
		impls = append(impls, prog.MethodByName(name).ID)
	}
	graph := func(here, there []float64) *profile.DCG {
		g := profile.NewDCG()
		for i, w := range here {
			g.AddSample(profile.Edge{Caller: main.ID, Site: at, Callee: impls[i]}, w)
		}
		for i, w := range there {
			g.AddSample(profile.Edge{Caller: main.ID, Site: elsewhere, Callee: impls[i]}, w)
		}
		return g
	}
	const uniform = 1.0 / 4

	own := []float64{0, 5, 3, 1}
	for c, p := range priorsAt(prog, graph(own, nil), at) {
		if p != uniform {
			t.Errorf("alone in its family: prior of %s is %v, want 1/4", prog.Methods[c].Name, p)
		}
	}

	there := []float64{7, 2, 1, 0}
	base := priorsAt(prog, graph(own, there), at)
	for _, perm := range [][]float64{{0, 1, 5, 3}, {0, 3, 1, 5}, {0, 5, 1, 3}} {
		for c, p := range priorsAt(prog, graph(perm, there), at) {
			if p != base[c] {
				t.Errorf("site weights %v, then %v: prior of %s moved %v -> %v", own, perm, prog.Methods[c].Name, base[c], p)
			}
		}
	}

	for i := range impls {
		one := make([]float64, len(impls))
		one[i] = 1
		for c, p := range priorsAt(prog, graph(own, one), at) {
			if d := math.Abs(p - uniform); d > 1.0/(1+familyPrior) {
				t.Errorf("one sample of %s elsewhere moves the prior of %s to %v, by %v > 1/(1+α)",
					prog.Methods[impls[i]].Name, prog.Methods[c].Name, p, d)
			}
		}
	}
}
