package plan_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// dominantOracle is the share a guard is judged on, written out here
// rather than imported (see guardBreakevenOracle). With k_c of a site's n
// samples on callee c, the graph's W windows (0: not counted) capping the
// site's evidence at n' = min(n, W) draws and k_c at k_c·n'/n, and π_c
// the prior of c — the rest of its family: with w_c the weight g holds on
// c, F its weight on the virtual methods of c's family (the root class of
// its hierarchy and its vtable slot), n_f the site's own weight on them
// and I the family's implementations, π_c = (w_c − k_c + 4/I)/(F − n_f + 4)
// — the site's share of c is (k_c·n'/n + 4·π_c)/(n' + 4), and the
// dominant target the callee where that is largest. ok is false when g
// holds nothing on the site.
func dominantOracle(pristine *bytecode.Program, g *profile.DCG, site int) (callee int, share float64, ok bool) {
	type family struct {
		root *bytecode.Class
		slot int
	}
	familyOf := func(id int) family {
		root := pristine.Methods[id].Class
		for root.Super != nil {
			root = root.Super
		}
		return family{root, pristine.Methods[id].VSlot}
	}
	impls := map[family]float64{}
	for _, m := range pristine.Methods {
		if m.VSlot >= 0 {
			impls[familyOf(m.ID)]++
		}
	}
	here, anywhere, families, ownFamilies := map[int]float64{}, map[int]float64{}, map[family]float64{}, map[family]float64{}
	var n float64
	for _, e := range g.Edges() {
		w := g.Weight(e)
		virtual := pristine.Methods[e.Callee].VSlot >= 0
		if e.Site == site {
			here[e.Callee] += w
			n += w
			if virtual {
				ownFamilies[familyOf(e.Callee)] += w
			}
		}
		if virtual {
			anywhere[e.Callee] += w
			families[familyOf(e.Callee)] += w
		}
	}
	draws := n
	if w := g.Windows(); w > 0 && w < n {
		draws = w
	}
	callees := make([]int, 0, len(here))
	for c := range here {
		callees = append(callees, c)
	}
	slices.Sort(callees)
	for _, c := range callees {
		pi := here[c] / n
		if pristine.Methods[c].VSlot >= 0 {
			f := familyOf(c)
			pi = (max(anywhere[c]-here[c], 0) + 4/impls[f]) / (max(families[f]-ownFamilies[f], 0) + 4)
		}
		if est := (here[c]*draws/n + 4*pi) / (draws + 4) * 100; est > share {
			callee, share, ok = c, est, true
		}
	}
	return callee, share, ok
}

// guardedAt returns the callee p guards at site, or -1.
func guardedAt(p *plan.Plan, site int) int {
	for _, d := range p.Decisions {
		if d.Site == site && d.Kind == plan.KindGuarded {
			return d.Callee
		}
	}
	return -1
}

// sampledLike shrinks the exhaustive graph x to what a sampler might
// hold early on: site is given samples on callee alone, every other
// site's weights are scaled so the whole graph weighs total.
func sampledLike(x *profile.DCG, site, callee int, samples, total float64) *profile.DCG {
	var caller int
	for _, e := range x.Edges() {
		if e.Site == site {
			caller = e.Caller
		}
	}
	scale := (total - samples) / (x.Total() * (1 - x.SiteWeightPercent(site)/100))
	g := x.MapWeights(func(e profile.Edge, w float64) float64 {
		if e.Site == site {
			return 0
		}
		return w * scale
	})
	g.AddSample(profile.Edge{Caller: caller, Site: site, Callee: callee}, samples)
	return g
}

// TestOneSampleDoesNotElect is the two elections the plan loop's ladder
// was traced to: one or two samples at a site read "100 %" of a callee
// that the rest of the graph says is rare there. kawa's Prim.eval
// dispatches its first argument over eight receivers (site 32); the
// first of 32 samples the fleet held on it was a WhileX.eval — 1 % of
// that site's calls, 3 % of all eval calls — and a guard on it was
// elected in round 2 and held on that same sample to round 6. javac's
// expression-tree sites elected BitAnd.eval from two samples of 128.
// Neither is elected now, and a prior that holds one is released; with
// the site's own weight at 40 samples the same share is believed.
func TestOneSampleDoesNotElect(t *testing.T) {
	params := plan.DefaultParams() // compiled as given: the graphs below carry fractions of a sample
	for _, tc := range []struct {
		program, owner, callee string
		receivers              int
		samples, total         float64
	}{
		{"kawa", "Prim.eval", "WhileX.eval", 8, 1, 32},
		{"javac", "Add.eval", "BitAnd.eval", 0, 2, 128},
	} {
		pristine := jitProgram(t, tc.program)
		x := exhaustiveGraph(t, pristine.Clone(), bench.ByName(tc.program).Small, 2)
		callee := pristine.MethodByName(tc.callee)
		site := -1
		for _, s := range x.Sites() {
			dist := x.SiteDistribution(s)
			sees := slices.ContainsFunc(dist, func(tw profile.TargetWeight) bool { return tw.Callee == callee.ID })
			if pristine.Methods[pristine.Sites[s].Owner].Name == tc.owner && sees && (tc.receivers == 0 || len(dist) == tc.receivers) && site < 0 {
				site = s
			}
		}
		if site < 0 {
			t.Fatalf("%s: no site in %s that calls %s", tc.program, tc.owner, tc.callee)
		}
		name := fmt.Sprintf("%s site %d (%s)", tc.program, site, pristine.SiteDescription(site))

		thin := sampledLike(x, site, callee.ID, tc.samples, tc.total)
		if _, share, _ := dominantOracle(pristine, thin, site); share >= guardBreakevenOracle(callee.NArgs) {
			t.Fatalf("%s: %v samples of %s estimate to %.1f %%, a share that pays; the case tests nothing", name, tc.samples, tc.callee, share)
		}
		fresh := mustCompileRaw(t, tc.program, pristine, thin, params, nil)
		if got := guardedAt(fresh, site); got >= 0 {
			t.Errorf("%s: %v samples of %v elected a guard on %s", name, tc.samples, tc.total, pristine.Methods[got].Name)
		}
		held := withExtra(fresh, plan.Decision{Site: site, Callee: callee.ID, Kind: plan.KindGuarded})
		if got := mustCompileRaw(t, tc.program, pristine, thin, params, held); !got.Equal(fresh) {
			t.Errorf("%s: a guard on %s held on %v samples of %v was not released", name, tc.callee, tc.samples, tc.total)
		}

		thick := sampledLike(x, site, callee.ID, 40*tc.samples, 40*tc.total)
		if got := guardedAt(mustCompileRaw(t, tc.program, pristine, thick, params, nil), site); got != callee.ID {
			t.Errorf("%s: %v samples of %v, all %s, elected %d", name, 40*tc.samples, 40*tc.total, tc.callee, got)
		}
	}
}

// TestOneWindowDoesNotElect is phases' burst. The program's one
// Shape.area site calls four receivers a quarter each over a run, one at
// a time within a phase; a timer tick whose window falls inside a Hex
// phase takes its 16 samples there, three calls apart, and they read
// "100 %" Hex.area. They are one draw of the site — a guard elected on
// them lost 4.3 % of phases in the plan loop — so from one window the
// guard is not elected and one held is released. The same 16 samples
// from 16 windows or more are 16 draws, and elect.
func TestOneWindowDoesNotElect(t *testing.T) {
	pristine := jitProgram(t, "phases")
	x := exhaustiveGraph(t, pristine.Clone(), bench.ByName("phases").Small, 2)
	hex := pristine.MethodByName("Hex.area")
	site := -1
	for _, s := range x.Sites() {
		dist := x.SiteDistribution(s)
		if len(dist) == 4 && slices.ContainsFunc(dist, func(tw profile.TargetWeight) bool { return tw.Callee == hex.ID }) {
			site = s
		}
	}
	if site < 0 {
		t.Fatal("phases has no four-receiver site that calls Hex.area")
	}
	params := plan.DefaultParams()
	burst := func(windows float64) *profile.DCG {
		g := sampledLike(x, site, hex.ID, 16, 16)
		g.SetWindows(windows)
		return g
	}

	one := burst(1)
	if _, share, _ := dominantOracle(pristine, one, site); share >= guardBreakevenOracle(hex.NArgs) {
		t.Fatalf("16 samples of Hex.area in one window estimate to %.1f %%, a share that pays; the case tests nothing", share)
	}
	fresh := mustCompileRaw(t, "phases", pristine, one, params, nil)
	if got := guardedAt(fresh, site); got >= 0 {
		t.Errorf("one window of 16 samples elected a guard on %s", pristine.Methods[got].Name)
	}
	held := withExtra(fresh, plan.Decision{Site: site, Callee: hex.ID, Kind: plan.KindGuarded})
	if got := mustCompileRaw(t, "phases", pristine, one, params, held); !got.Equal(fresh) {
		t.Error("a guard on Hex.area held on one window of 16 samples was not released")
	}
	for _, windows := range []float64{16, 64} {
		if got := guardedAt(mustCompileRaw(t, "phases", pristine, burst(windows), params, nil), site); got != hex.ID {
			t.Errorf("16 samples of Hex.area from %v windows elected %d, want a guard on it", windows, got)
		}
	}
}

func mustCompileFor(t *testing.T, program string, pristine *bytecode.Program, g *profile.DCG, params plan.Params, prior *plan.Plan) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(program, pristine, g, params, prior)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustCompileRaw compiles g as given: no floor, no grid.
func mustCompileRaw(t *testing.T, program string, pristine *bytecode.Program, g *profile.DCG, params plan.Params, prior *plan.Plan) *plan.Plan {
	t.Helper()
	p, err := plan.CompileConditioned(program, pristine, plan.Condition(g, 0, 0), params, prior)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEstimateIsRawShareAtScale is what lets the estimate replace the raw
// share everywhere: on a graph with the evidence an exhaustive profile
// has, it elects what the raw share elects. The raw share does not
// change when every weight is multiplied by 2^20 (exactly, in floating
// point) and the estimate then is the raw share to one part in a
// million, so the two graphs must compile to one decision set — for the
// 15 suite programs and 50 generated ones, under every profile-directed
// policy. Where they do not, the site was called at most α = 4 times in
// the whole run (generated programs have dozens of sites that run once:
// one call is "100 %" of nothing), or it is named below with its count:
// a handful of calls within α samples of a line.
func TestEstimateIsRawShareAtScale(t *testing.T) {
	// program/policy/site: what the exhaustive graph guards -> what its
	// 2^20-fold guards, and the site's calls.
	withinAlpha := map[string]string{
		"gen-deepvirt-0/new-linear/19": "C0D2.m0_2 -> -, 12 calls",
		"gen-deepvirt-1/new-linear/25": "C0D2.m0_2 -> -, 12 calls",
		"gen-deepvirt-4/new-linear/23": "- -> C0D1.m0_0, 6 calls",
		"gen-deepvirt-4/old-jikes/23":  "- -> C0D1.m0_0, 6 calls",
		"gen-deepvirt-4/j9-dynamic/23": "- -> C0D1.m0_0, 6 calls",
		"gen-deepvirt-5/new-linear/23": "C0D0.m0_2 -> -, 12 calls",
		"gen-deepvirt-7/new-linear/26": "C0D5.m0_2 -> -, 8 calls",
		"gen-deepvirt-8/new-linear/23": "C0D0.m0_1 -> -, 14 calls",
		"gen-deepvirt-9/new-linear/17": "C0D2.m0_2 -> -, 9 calls",
	}
	var rare int
	for _, pp := range propertyPrograms(t) {
		scaled := pp.graph.MapWeights(func(_ profile.Edge, w float64) float64 { return w * (1 << 20) })
		for _, policy := range []string{"new-linear", "old-jikes", "j9-dynamic"} {
			params := plan.DefaultParams()
			params.Policy = policy
			got := mustCompileRaw(t, pp.name, pp.pristine, pp.graph, params, nil)
			want := mustCompileRaw(t, pp.name, pp.pristine, scaled, params, nil)
			for _, site := range pp.graph.Sites() {
				a, b := guardedAt(got, site), guardedAt(want, site)
				calls := math.Round(pp.graph.SiteWeightPercent(site) * pp.graph.Total() / 100)
				if a == b {
					continue
				}
				if calls <= 4 {
					rare++
					continue
				}
				key := fmt.Sprintf("%s/%s/%d", pp.name, policy, site)
				is := fmt.Sprintf("%s -> %s, %v calls", methodName(pp.pristine, a), methodName(pp.pristine, b), calls)
				if withinAlpha[key] != is {
					t.Errorf("%s: the estimate and the raw share disagree on an exhaustive graph: %s", key, is)
				}
			}
		}
	}
	t.Logf("%d sites with at most 4 calls in the run disagree", rare)
}

func methodName(prog *bytecode.Program, id int) string {
	if id < 0 {
		return "-"
	}
	return prog.Methods[id].Name
}

// TestHeldDecisionsApply: what retention holds must still apply. A guard
// on a recursive call — javac's Bin.check checking its left operand, the
// callee the site's own method — is never elected in that method (a
// method is not inlined into itself) but can be where Bin.check's body
// has been spliced into a caller; once the graph stops electing that
// outer inline, the nested decision has no place left to apply, and a
// plan that still held it reached the pulling VM with a stale decision
// (plan_loop, seed 1, fourth pass: "plan epoch 4 does not apply
// cleanly"). It is released with the decision that carried it.
func TestHeldDecisionsApply(t *testing.T) {
	pristine := jitProgram(t, "javac")
	x := exhaustiveGraph(t, pristine.Clone(), bench.ByName("javac").Small, 2)
	params := plan.DefaultParams()
	fresh := mustCompileFor(t, "javac", pristine, x, params, nil)
	check := pristine.MethodByName("Bin.check")
	site := -1
	for _, s := range x.Sites() {
		if top, _, ok := dominantOracle(pristine, x, s); ok && top == check.ID && pristine.Sites[s].Owner == check.ID && guardedAt(fresh, s) < 0 {
			site = s
		}
	}
	if site < 0 {
		t.Fatal("javac has no unelected site in Bin.check that mostly calls Bin.check")
	}
	// Put the recursive receiver between the two lines of a 1-argument
	// guard (38.9 % holds, 43.9 % elects), as a sampled graph did.
	var own, rest float64
	for _, tw := range x.SiteDistribution(site) {
		if tw.Callee == check.ID {
			own += tw.Weight
		} else {
			rest += tw.Weight
		}
	}
	// and make it rare everywhere else, so that no caller inlines it.
	g := x.MapWeights(func(e profile.Edge, w float64) float64 {
		switch {
		case e.Callee != check.ID:
			return w
		case e.Site == site:
			return w * (0.415 * rest / 0.585) / own
		default:
			return w / 8
		}
	})
	base := mustCompileFor(t, "javac", pristine, g, params, nil)
	if top, share, _ := dominantOracle(pristine, plan.Condition(g, plan.Floor, plan.Band), site); top != check.ID || share < 39.5 || share > 43.5 || guardedAt(base, site) >= 0 {
		t.Fatalf("site %d: %s at %.1f %%, elected %v; the case tests nothing", site, pristine.Methods[top].Name, share, guardedAt(base, site) >= 0)
	}
	held := withExtra(base, plan.Decision{Site: site, Callee: check.ID, Kind: plan.KindGuarded})
	got := mustCompileFor(t, "javac", pristine, g, params, held)
	res, err := plan.Apply(pristine.Clone(), got, inline.DefaultOptions())
	if err != nil || res.SkippedStale != 0 {
		t.Errorf("the plan served over a prior holding %s at site %d (%s) applies with err %v and %d stale decisions",
			check.Name, site, pristine.SiteDescription(site), err, res.SkippedStale)
	}
}
