package plan_test

import (
	"fmt"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// guardBreakevenOracle is the cost model's break-even share (0–100) of
// a method-test guard on a callee of nargs arguments, written out here
// rather than imported so the tests below hold the compiler to the
// model and not to itself: the fast path saves 17 − (nargs + 5) cycles,
// the slow path costs 2·nargs + 5 more than the call it guards.
func guardBreakevenOracle(nargs int) float64 {
	win := 12 - nargs
	if win <= 0 {
		return 200
	}
	loss := 2*nargs + 5
	return float64(loss) / float64(loss+win) * 100
}

// guardsThatLose lists the guarded decisions of p that the cost model
// says lose on cond: the callee is not its site's dominant target, or
// its estimated share (dominantOracle) is under the guard's break-even.
func guardsThatLose(pristine *bytecode.Program, cond *profile.DCG, p *plan.Plan) []string {
	var out []string
	for _, d := range p.Decisions {
		if d.Kind != plan.KindGuarded {
			continue
		}
		top, share, ok := dominantOracle(pristine, cond, d.Site)
		switch be := guardBreakevenOracle(pristine.Methods[d.Callee].NArgs); {
		case !ok:
			out = append(out, fmt.Sprintf("site %d: guard on %s at a site the graph does not hold", d.Site, pristine.Methods[d.Callee].Name))
		case top != d.Callee:
			out = append(out, fmt.Sprintf("site %d: guard on %s, dominant is %s at %.1f %%",
				d.Site, pristine.Methods[d.Callee].Name, pristine.Methods[top].Name, share))
		case share < be:
			out = append(out, fmt.Sprintf("site %d: guard on %s at %.1f %%, break-even %.1f %%",
				d.Site, pristine.Methods[d.Callee].Name, share, be))
		}
	}
	return out
}

// TestGuardReleasedBelowBreakeven is the release rule on the shape that
// cost db 5.7 % under the fleet plan: shellsort's comparator site, one
// virtual call with four receiver classes and a 3-argument callee
// (break-even 55 %, election at 60 %). A prior that guards the heaviest
// receiver is held between the two lines, though the policy would not
// elect it, and released under the lower one or once another receiver
// is heavier; a static or null-guard prior cannot lose in the model and
// is held by warmth alone. Band 0, and the site is called a hundred
// thousand times, so the shares below are the shares the compiler
// sees to a hundredth of a point (TestOneSampleDoesNotElect is the
// release of a guard held on one sample).
func TestGuardReleasedBelowBreakeven(t *testing.T) {
	pristine := jitProgram(t, "db")
	b := bench.ByName("db")
	base := exhaustiveGraph(t, pristine.Clone(), b.Small, 2)

	site, receivers := -1, []profile.TargetWeight(nil)
	for _, s := range base.Sites() {
		if dist := base.SiteDistribution(s); len(dist) == 4 {
			site, receivers = s, dist
		}
	}
	if site < 0 {
		t.Fatal("db has no call site with four receivers")
	}
	for _, r := range receivers {
		if n := pristine.Methods[r.Callee].NArgs; n != 3 {
			t.Fatalf("%s takes %d arguments, the table below assumes 3", pristine.Methods[r.Callee].Name, n)
		}
	}
	siteWeight := base.SiteWeightPercent(site) * base.Total() / 100
	// withShares is the exhaustive graph with the comparator site's
	// weight split shares[i] % to receivers[i].
	withShares := func(shares [4]float64) *profile.DCG {
		return base.MapWeights(func(e profile.Edge, w float64) float64 {
			if e.Site != site {
				return w
			}
			for i, r := range receivers {
				if r.Callee == e.Callee {
					return siteWeight * shares[i] / 100
				}
			}
			return w
		})
	}
	fresh := mustCompile(t, pristine, base, nil)
	prior := func(k plan.Kind, callee int) *plan.Plan {
		return withExtra(fresh, plan.Decision{Site: site, Callee: callee, Kind: k})
	}
	first, second := receivers[0].Callee, receivers[1].Callee

	for _, tc := range []struct {
		name   string
		shares [4]float64
		prior  *plan.Plan
		held   bool
	}{
		{"guard on the heaviest at 52 %: under break-even, released", [4]float64{52, 22, 17, 9}, prior(plan.KindGuarded, first), false},
		{"guard on the heaviest at 57 %: not electable, held", [4]float64{57, 20, 14, 9}, prior(plan.KindGuarded, first), true},
		{"guard on the heaviest just over break-even: held", [4]float64{55.5, 21.5, 14, 9}, prior(plan.KindGuarded, first), true},
		{"guard on the heaviest just under break-even: released", [4]float64{54.5, 22.5, 14, 9}, prior(plan.KindGuarded, first), false},
		{"guard on a receiver at 30 % while another has 57 %: released", [4]float64{57, 30, 8, 5}, prior(plan.KindGuarded, second), false},
		{"guard on a receiver at 45 % while another has 46 %: released", [4]float64{46, 45, 5, 4}, prior(plan.KindGuarded, second), false},
		{"static prior at 52 %: held by warmth", [4]float64{52, 22, 17, 9}, prior(plan.KindStatic, first), true},
		{"null-guard prior at 25 % each: held by warmth", [4]float64{25, 25, 25, 25}, prior(plan.KindNullGuard, first), true},
	} {
		g := withShares(tc.shares)
		for _, d := range mustCompile(t, pristine, g, nil).Decisions {
			if d.Site == site {
				t.Fatalf("%s: the policy elects site %d by itself; the case tests nothing", tc.name, site)
			}
		}
		got := mustCompile(t, pristine, g, tc.prior)
		if tc.held && got != tc.prior {
			t.Errorf("%s: released (epoch %d -> %d, %d -> %d decisions)", tc.name, tc.prior.Epoch, got.Epoch, len(tc.prior.Decisions), len(got.Decisions))
		}
		if !tc.held && (got == tc.prior || got.Epoch != tc.prior.Epoch+1 || !got.Equal(fresh)) {
			t.Errorf("%s: held (epoch %d -> %d, %d decisions, the policy's own %d)", tc.name, tc.prior.Epoch, got.Epoch, len(got.Decisions), len(fresh.Decisions))
		}
		// Either way the answer is a fixed point: what a plan service
		// skips a recompile on.
		if again := mustCompile(t, pristine, g, got); again != got {
			t.Errorf("%s: recompiling with the result as prior minted epoch %d over %d", tc.name, again.Epoch, got.Epoch)
		}
	}

	cold := base.MapWeights(func(e profile.Edge, w float64) float64 {
		if e.Site == site {
			return 0
		}
		return w
	})
	// A site gone cold releases every kind, as before.
	for _, k := range []plan.Kind{plan.KindStatic, plan.KindGuarded, plan.KindNullGuard} {
		if got := mustCompile(t, pristine, cold, prior(k, first)); !got.Equal(mustCompile(t, pristine, cold, nil)) {
			t.Errorf("a %v decision survived its site going cold", k)
		}
	}

	// A prior read from disk may name any callee, and a pusher may send
	// any: a guard stands on its site's heaviest callee, so one on a
	// callee the program does not have, or at a site whose only callee
	// the program does not have, is released however warm the site.
	stray := 1 << 20
	warm := withShares([4]float64{57, 20, 14, 9})
	warm.AddSample(profile.Edge{Caller: pristine.Sites[site].Owner, Site: stray, Callee: len(pristine.Methods)}, siteWeight)
	for _, p := range []*plan.Plan{
		withExtra(fresh, plan.Decision{Site: stray, Callee: first, Kind: plan.KindGuarded}),
		withExtra(fresh, plan.Decision{Site: site, Callee: len(pristine.Methods), Kind: plan.KindGuarded}),
		withExtra(fresh, plan.Decision{Site: site, Callee: -1, Kind: plan.KindGuarded}),
	} {
		if got := mustCompile(t, pristine, warm, p); !got.Equal(mustCompile(t, pristine, warm, nil)) {
			t.Errorf("a guard on %+v survived with no callee of the program to stand on", p.Decisions)
		}
	}
}

// mustCompile compiles db's graph g without the grid, so that a share
// the test sets is the share the compiler reads.
func mustCompile(t *testing.T, pristine *bytecode.Program, g *profile.DCG, prior *plan.Plan) *plan.Plan {
	t.Helper()
	p, err := plan.CompileConditioned("db", pristine, plan.Condition(g, plan.Floor, 0), plan.DefaultParams(), prior)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServedGuardsPayInTheirGraph is the property retention must keep:
// every guarded decision of every plan a prior chain serves names its
// site's dominant callee at an estimated share at or above the guard's
// break-even in the conditioned graph the plan was compiled from —
// elected or retained — and every served plan applies to the build it
// was compiled for with no decision left over.
// The chains are TestPlanSequencePinned's (javac, phases and closures
// under 2 × 44 pushes of real CBS deltas and a decay) and the same
// schedule over generated megamorphic and phaseshift workloads, whose
// receiver mixes are built to drift across a guard's two lines.
func TestServedGuardsPayInTheirGraph(t *testing.T) {
	const pushes = 44
	params := plan.DefaultParams()
	type subject struct {
		name     string
		pristine *bytecode.Program
		size     int64
	}
	var subjects []subject
	for _, name := range []string{"javac", "phases", "closures"} {
		subjects = append(subjects, subject{name, jitProgram(t, name), bench.ByName(name).Small})
	}
	for _, shape := range []string{mj.ShapeMegamorphic, mj.ShapePhaseShift} {
		for seed := int64(1); seed <= 3; seed++ {
			prog, err := mj.Compile(mj.GenerateWorkload(seed, 4, shape))
			if err != nil {
				t.Fatal(err)
			}
			if err := inline.JITOnly(prog); err != nil {
				t.Fatal(err)
			}
			subjects = append(subjects, subject{fmt.Sprintf("gen-%s-%d", shape, seed), prog, 40})
		}
	}
	var guards, plans int
	for _, s := range subjects {
		store := dcgstore.New()
		pushers := []*cbsPusher{
			newCBSPusher(t, s.pristine.Clone(), s.size, 1),
			newCBSPusher(t, s.pristine.Clone(), s.size, 2),
		}
		var prior *plan.Plan
		pull := func(what string) {
			t.Helper()
			snapshot := store.Snapshot()
			p, err := plan.Compile(s.name, s.pristine, snapshot, params, prior)
			if err != nil {
				t.Fatalf("%s %s: %v", s.name, what, err)
			}
			prior = p
			plans++
			for _, d := range p.Decisions {
				if d.Kind == plan.KindGuarded {
					guards++
				}
			}
			for _, loss := range guardsThatLose(s.pristine, plan.Condition(snapshot, plan.Floor, plan.Band), p) {
				t.Errorf("%s %s, epoch %d: %s", s.name, what, p.Epoch, loss)
			}
			if res, err := plan.Apply(s.pristine.Clone(), p, inline.DefaultOptions()); err != nil || res.SkippedStale != 0 {
				t.Errorf("%s %s, epoch %d: applies with err %v and %d stale decisions", s.name, what, p.Epoch, err, res.SkippedStale)
			}
		}
		for i := 0; i < pushes && !t.Failed(); i++ {
			for _, p := range pushers {
				p.push(t, store)
				pull(fmt.Sprintf("push %d of %s", p.seq, p.id))
			}
			if i == pushes/2 {
				store.Decay(0.5, 0.75)
				pull("decay")
			}
		}
	}
	if guards < 1000 {
		t.Errorf("%d guarded decisions over %d served plans; the property is under-tested", guards, plans)
	}
}
