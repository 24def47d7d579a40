package plan_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// profiled is one program prepared as the fleet runs it, with the
// exhaustive graph of one run of main.
type profiled struct {
	name     string
	pristine *bytecode.Program
	graph    *profile.DCG
}

var propertyCache []profiled

// propertyPrograms is the population the plan properties quantify over:
// the 15 suite programs at their small input and mjgen's five shapes at
// ten seeds each. Built once a test binary; no test writes to it.
func propertyPrograms(t *testing.T) []profiled {
	t.Helper()
	if propertyCache != nil {
		return propertyCache
	}
	run := func(name string, prog *bytecode.Program, arg int64) profiled {
		if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ex := profiler.NewExhaustive()
		m := vm.New(prog.Clone())
		m.MaxSteps = 4_000_000_000
		m.SetProfiler(ex)
		if _, err := m.Run(arg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return profiled{name: name, pristine: prog, graph: ex.Graph}
	}
	var out []profiled
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, run(b.Name, prog, b.Small))
	}
	for _, shape := range mj.Shapes() {
		for seed := int64(0); seed < 10; seed++ {
			name := fmt.Sprintf("gen-%s-%d", shape, seed)
			prog, err := mj.Compile(mj.GenerateShaped(seed, 2+int(seed%3), shape))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, run(name, prog, seed*13%89+1))
		}
	}
	propertyCache = out
	return out
}

// withExtra returns base's plan with one more decision, as if an
// earlier, hotter graph had elected it.
func withExtra(base *plan.Plan, extra plan.Decision) *plan.Plan {
	p := *base
	p.Epoch = base.Epoch + 4
	p.Decisions = append(append([]plan.Decision{}, base.Decisions...), extra)
	sort.Slice(p.Decisions, func(i, j int) bool { return p.Decisions[i].Site < p.Decisions[j].Site })
	p.Hash = p.ContentHash()
	return &p
}

// TestCompileReturnsItsOwnResultVerbatim is the theorem a plan service
// may rest a skipped recompile on: compiling a graph with the plan that
// same graph compiled to as prior returns that prior itself — the same
// pointer, whatever prior the first compile started from. The elected
// set is the same both times, and what the first compile retained from
// its prior is exactly what the second finds warm on the same graph.
func TestCompileReturnsItsOwnResultVerbatim(t *testing.T) {
	params := plan.DefaultParams()
	var retained, dropped, released int
	for _, pp := range propertyPrograms(t) {
		base, err := plan.Compile(pp.name, pp.pristine, pp.graph, params, nil)
		if err != nil {
			t.Fatalf("%s: %v", pp.name, err)
		}
		decided := map[int]bool{}
		for _, d := range base.Decisions {
			decided[d.Site] = true
		}
		priors := map[string]*plan.Plan{"nil": nil}
		// A site the policy did not elect but the hold share keeps: a
		// prior that decided it has that decision retained.
		cond := plan.Condition(pp.graph, plan.Floor, plan.Band)
		coldSite := 1 << 20
		for _, site := range cond.Sites() {
			if !decided[site] && cond.SiteWeightPercent(site) >= plan.HoldPct {
				priors["retained"] = withExtra(base, plan.Decision{Site: site, Kind: plan.KindStatic})
				break
			}
		}
		// A site the graph does not hold at all: the decision is dropped
		// and a new epoch minted.
		priors["cold"] = withExtra(base, plan.Decision{Site: coldSite, Kind: plan.KindStatic})
		// A guard the cost model says loses on this graph, at a site as
		// warm as any: on a callee that is not its site's dominant one,
		// and on the dominant one where its estimated share is under
		// break-even. Released under a new epoch like the cold one.
		for _, site := range cond.Sites() {
			dist := cond.SiteDistribution(site)
			if decided[site] || len(dist) < 2 || cond.SiteWeightPercent(site) < plan.HoldPct {
				continue
			}
			top, share, _ := dominantOracle(pp.pristine, cond, site)
			if priors["second"] == nil {
				other := dist[0].Callee
				if other == top {
					other = dist[1].Callee
				}
				priors["second"] = withExtra(base, plan.Decision{Site: site, Callee: other, Kind: plan.KindGuarded})
			}
			if priors["losing"] == nil && share < guardBreakevenOracle(pp.pristine.Methods[top].NArgs) {
				priors["losing"] = withExtra(base, plan.Decision{Site: site, Callee: top, Kind: plan.KindGuarded})
			}
		}

		for what, prior := range priors {
			first, err := plan.Compile(pp.name, pp.pristine, pp.graph, params, prior)
			if err != nil {
				t.Fatalf("%s/%s: %v", pp.name, what, err)
			}
			switch what {
			case "retained":
				if first != prior {
					t.Errorf("%s: a decision on a warm site was not retained", pp.name)
				}
				retained++
			case "cold":
				if first == prior || first.Epoch != prior.Epoch+1 || !first.Equal(base) {
					t.Errorf("%s: a decision on a cold site was not dropped under a new epoch", pp.name)
				}
				dropped++
			case "second", "losing":
				if first == prior || first.Epoch != prior.Epoch+1 || !first.Equal(base) {
					t.Errorf("%s/%s: a guard the cost model says loses was not released under a new epoch", pp.name, what)
				}
				released++
			}
			again, err := plan.Compile(pp.name, pp.pristine, pp.graph, params, first)
			if err != nil {
				t.Fatalf("%s/%s: %v", pp.name, what, err)
			}
			if again != first {
				t.Errorf("%s/%s: compiling a graph with its own plan as prior minted epoch %d hash %016x (%d decisions) over epoch %d hash %016x (%d)",
					pp.name, what, again.Epoch, again.Hash, len(again.Decisions), first.Epoch, first.Hash, len(first.Decisions))
			}
		}
	}
	if retained < 40 || dropped < 65 || released < 30 {
		t.Errorf("%d programs exercised retention, %d a cold drop and %d priors a losing guard; the property is under-tested", retained, dropped, released)
	}
}

// twoPassCondition is Condition as it was written before it became one
// pass: filter below the floor (profile.DCG.FilterBelow, as it read),
// then map the survivors onto the grid, each step rebuilding the graph
// in canonical edge order.
func twoPassCondition(g *profile.DCG, minWeight, band float64) *profile.DCG {
	floor := minWeight
	if floor <= 0 {
		floor = math.SmallestNonzeroFloat64
	}
	out := profile.NewDCG()
	for _, e := range g.Edges() {
		if w := g.Weight(e); w >= floor {
			out.AddSample(e, w)
		}
	}
	if band <= 0 {
		return out
	}
	logStep := math.Log1p(band)
	return out.MapWeights(func(_ profile.Edge, w float64) float64 {
		idx := math.Round(math.Log(w/floor) / logStep)
		return floor * math.Exp(idx*logStep)
	})
}

// TestConditionEqualsTwoPass holds Condition to the two-pass form in
// edges, weights and Total() to the bit, over exhaustive and sampled
// graphs of every property program, a hand-built graph of awkward
// weights, and floors and bands on both sides of their defaults
// (including the disabled ones).
func TestConditionEqualsTwoPass(t *testing.T) {
	graphs := map[string]*profile.DCG{"empty": profile.NewDCG()}
	awkward := profile.NewDCG()
	for i, w := range []float64{0.1, 1e16, 0.2, 0.3, 3.7, 1, 0.9999999999999999, 1.25, 1.5625, 1e-300, 5e-324, 1 << 60} {
		awkward.AddSample(profile.Edge{Caller: 12 - i, Site: i % 4, Callee: i * 7}, w)
	}
	graphs["awkward"] = awkward
	for _, pp := range propertyPrograms(t) {
		graphs[pp.name] = pp.graph
		// The same graph as a store holds it after a decay and a merge:
		// fractional weights, a total summed in another order.
		aged := pp.graph.MapWeights(func(e profile.Edge, w float64) float64 { return w * 0.37 })
		aged.Merge(pp.graph)
		graphs[pp.name+"/aged"] = aged
	}
	type knobs struct{ minWeight, band float64 }
	for name, g := range graphs {
		for _, k := range []knobs{{1, 0.25}, {0, 0.25}, {1, 0}, {0, 0}, {0.5, 0.05}, {40, 1}, {-3, -1}} {
			got, want := plan.Condition(g, k.minWeight, k.band), twoPassCondition(g, k.minWeight, k.band)
			if got.NumEdges() != want.NumEdges() {
				t.Errorf("%s %+v: %d edges, two-pass %d", name, k, got.NumEdges(), want.NumEdges())
				continue
			}
			if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
				t.Errorf("%s %+v: total %x, two-pass %x", name, k, math.Float64bits(got.Total()), math.Float64bits(want.Total()))
			}
			for _, e := range want.Edges() {
				if math.Float64bits(got.Weight(e)) != math.Float64bits(want.Weight(e)) {
					t.Errorf("%s %+v: %v weighs %v, two-pass %v", name, k, e, got.Weight(e), want.Weight(e))
				}
			}
		}
	}
	if got := plan.Condition(nil, 1, 0.25); got == nil || got.NumEdges() != 0 {
		t.Errorf("Condition(nil) = %v, want an empty graph", got)
	}
}
