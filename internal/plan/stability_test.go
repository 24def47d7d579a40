package plan_test

import (
	"bytes"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// TestSubFloorJitterKeepsPlanIdentical is the golden stability test:
// two aggregated snapshots that differ only in edges below the
// minimum-weight floor — exactly the noise a fleet of sampling
// profilers produces between polls — must compile to the same epoch,
// hash, and bytes.
func TestSubFloorJitterKeepsPlanIdentical(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	g := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)
	params := plan.DefaultParams()

	p1, err := plan.Compile("compress", pristine, g, params, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Jitter: brand-new edges below the floor, including one at a site
	// the plan already decides.
	jittered := g.Clone()
	jittered.AddSample(profile.Edge{Caller: 999, Site: 9999, Callee: 998}, plan.Floor/2)
	jittered.AddSample(profile.Edge{Caller: 997, Site: p1.Decisions[0].Site, Callee: 996}, plan.Floor/3)

	// Recompiling against the jittered snapshot with p1 as prior must
	// return p1 verbatim — no new epoch, no new hash, same bytes.
	p2, err := plan.Compile("compress", pristine, jittered, params, p1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Errorf("jittered recompile minted a new plan: epoch %d hash %016x vs prior epoch %d hash %016x",
			p2.Epoch, p2.Hash, p1.Epoch, p1.Hash)
	}

	// Even with no prior, the jittered snapshot yields the same
	// content (epoch restarts at 1 either way here).
	p3, err := plan.Compile("compress", pristine, jittered, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p3.Encode(), p1.Encode()) {
		t.Error("jittered fresh compile differs from the original plan bytes")
	}
}

// TestQuantizationAbsorbsSmallDrift: uniform relative drift far
// smaller than the hysteresis band leaves every quantized weight in
// its bucket, so the plan is unchanged.
func TestQuantizationAbsorbsSmallDrift(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	g := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)
	params := plan.DefaultParams()

	p1, err := plan.Compile("compress", pristine, g, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	drifted := g.MapWeights(func(_ profile.Edge, w float64) float64 { return w * (1 + 1e-9) })
	p2, err := plan.Compile("compress", pristine, drifted, params, p1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Errorf("1e-9 relative drift flapped the plan: epoch %d vs %d", p2.Epoch, p1.Epoch)
	}
}

// TestHysteresisRetention exercises both sides of the band directly: a
// prior decision at a still-warm site survives a recompile that would
// not re-elect it, and the same decision is dropped once its site goes
// cold — only the genuine drop mints a new epoch.
func TestHysteresisRetention(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	g := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)
	params := plan.DefaultParams()

	base, err := plan.Compile("compress", pristine, g, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	decided := map[int]bool{}
	for _, d := range base.Decisions {
		decided[d.Site] = true
	}
	// A warm site the policy did not elect: present in the conditioned
	// graph with share above the hold threshold.
	cond := plan.Condition(g, plan.Floor, plan.Band)
	warmSite := -1
	for _, site := range cond.Sites() {
		if !decided[site] && cond.SiteWeightPercent(site) >= plan.HoldPct {
			warmSite = site
			break
		}
	}
	if warmSite < 0 {
		t.Skip("no warm undecided site in this profile")
	}

	// Fabricate a prior that additionally decided warmSite (as if an
	// earlier, hotter snapshot had elected it).
	prior := &plan.Plan{
		Program:   "compress",
		Version:   pristine.Version(),
		Policy:    base.Policy,
		Epoch:     5,
		Decisions: append(append([]plan.Decision{}, base.Decisions...), plan.Decision{Site: warmSite, Callee: 0, Kind: plan.KindStatic}),
	}
	// Keep canonical order: re-sort via a round trip through Compile's
	// own helper is private, so sort by construction instead.
	for i := 1; i < len(prior.Decisions); i++ {
		for j := i; j > 0 && prior.Decisions[j].Site < prior.Decisions[j-1].Site; j-- {
			prior.Decisions[j], prior.Decisions[j-1] = prior.Decisions[j-1], prior.Decisions[j]
		}
	}
	prior.Hash = prior.ContentHash()

	// Warm site: the stale decision is retained and the prior returned
	// verbatim, epoch intact.
	kept, err := plan.Compile("compress", pristine, g, params, prior)
	if err != nil {
		t.Fatal(err)
	}
	if kept != prior {
		t.Fatalf("warm-site recompile did not retain the prior: epoch %d, %d decisions (prior epoch %d, %d)",
			kept.Epoch, len(kept.Decisions), prior.Epoch, len(prior.Decisions))
	}

	// Cold site: zero out the site's edges; the retained decision must
	// drop and the epoch advance.
	cold := g.MapWeights(func(e profile.Edge, w float64) float64 {
		if e.Site == warmSite {
			return 0
		}
		return w
	})
	dropped, err := plan.Compile("compress", pristine, cold, params, prior)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dropped.Decisions {
		if d.Site == warmSite {
			t.Errorf("cold site %d still has a decision", warmSite)
		}
	}
	if dropped.Epoch != prior.Epoch+1 {
		t.Errorf("cold recompile epoch = %d, want %d", dropped.Epoch, prior.Epoch+1)
	}
}

// TestPlanDeterministicFunction is the property test: the compiled
// plan is a deterministic function of the (graph, policy, prior plan)
// triple — in particular it must not depend on the insertion order
// that built the graph (map iteration order is the classic way to
// break this).
func TestPlanDeterministicFunction(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	real := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)
	edges := real.Edges()
	params := plan.DefaultParams()

	// Deterministic LCG so the property runs the same way every time.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 11
	}

	var prior *plan.Plan
	for trial := 0; trial < 12; trial++ {
		// A random reweighting of the real graph's edges, including
		// some sub-floor weights and some dropped edges.
		type ew struct {
			e profile.Edge
			w float64
		}
		var sample []ew
		for _, e := range edges {
			switch next() % 4 {
			case 0: // drop
			case 1:
				sample = append(sample, ew{e, 0.25}) // sub-floor
			default:
				sample = append(sample, ew{e, float64(1 + next()%5000)})
			}
		}
		forward, backward := profile.NewDCG(), profile.NewDCG()
		for i := 0; i < len(sample); i++ {
			forward.AddSample(sample[i].e, sample[i].w)
		}
		for i := len(sample) - 1; i >= 0; i-- {
			backward.AddSample(sample[i].e, sample[i].w)
		}

		p1, err := plan.Compile("compress", pristine, forward, params, prior)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := plan.Compile("compress", pristine, backward, params, prior)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p1.Encode(), p2.Encode()) {
			t.Fatalf("trial %d: insertion order changed the plan (epochs %d vs %d, %d vs %d decisions)",
				trial, p1.Epoch, p2.Epoch, len(p1.Decisions), len(p2.Decisions))
		}
		// Idempotence: recompiling the same graph against the fresh
		// plan returns it verbatim.
		p3, err := plan.Compile("compress", pristine, forward, params, p1)
		if err != nil {
			t.Fatal(err)
		}
		if p3 != p1 {
			t.Fatalf("trial %d: same-graph recompile minted epoch %d over %d", trial, p3.Epoch, p1.Epoch)
		}
		prior = p1 // chain priors so epochs walk forward across trials
	}
	if prior.Epoch < 2 {
		t.Errorf("epoch never advanced across randomized trials (epoch %d)", prior.Epoch)
	}
}
