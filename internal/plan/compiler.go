package plan

import (
	"fmt"
	"math"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
)

// Params configures plan compilation: which inline policy decides.
type Params struct {
	// Policy names the inline policy (see PolicyByName).
	Policy string
}

// DefaultParams returns the compilation parameters cbsd serves with.
func DefaultParams() Params {
	return Params{Policy: "new-linear"}
}

// The stability layer, tuned once like the policies' thresholds: every
// served plan, restored epoch and skipped recompile (see Service) is a
// function of these three numbers.
const (
	// floorWeight drops edges lighter than one sample before the policy
	// sees the graph, so edges that flicker in and out of existence at
	// negligible weight cannot change the plan.
	floorWeight = 1
	// gridBand snaps surviving weights to a geometric grid with ratio
	// 1+gridBand: a weight must move by about a whole band before the
	// policy sees any change at all.
	gridBand = 0.25
	// holdPct keeps a prior decision the graph no longer elects while its
	// call site carries at least this share (0–100) of the conditioned
	// weight, a guard only while it still pays (see compileConditioned):
	// election and release at different lines are the hysteresis.
	holdPct = 0.05
)

// PolicyByName resolves the profile-directed inline policies a plan
// can be compiled under.
func PolicyByName(name string) (inline.Policy, error) {
	switch name {
	case "new-linear":
		return inline.NewNewLinear(), nil
	case "old-jikes":
		return inline.NewOldJikes(), nil
	case "j9-static":
		return inline.NewJ9Static(), nil
	case "j9-dynamic":
		return inline.NewJ9Dynamic(), nil
	default:
		return nil, fmt.Errorf("unknown plan policy %q (have new-linear, old-jikes, j9-static, j9-dynamic)", name)
	}
}

// grid is the stability layer as a map on one weight: an edge below the
// floor is dropped, a heavier one snaps to a geometric grid anchored at
// the floor (logStep 0: no snapping). It is memoryless — a weight lands
// on the same grid point whatever any previous snapshot held — so a
// daemon that reloads its checkpoint conditions the restored graph
// exactly as the previous incarnation conditioned the live one.
type grid struct{ floor, logStep float64 }

func newGrid(minWeight, band float64) grid {
	return grid{
		floor:   max(minWeight, math.SmallestNonzeroFloat64),
		logStep: math.Log1p(max(band, 0)),
	}
}

// weight returns what an edge of raw weight w weighs once conditioned,
// 0 if the floor drops it.
func (q grid) weight(_ profile.Edge, w float64) float64 { return q.snap(w) }

// snap is weight of any count: a window count is snapped the same way.
func (q grid) snap(w float64) float64 {
	if !(w >= q.floor) {
		return 0
	}
	if q.logStep == 0 {
		return w
	}
	idx := math.Round(math.Log(w/q.floor) / q.logStep)
	return q.floor * math.Exp(idx*q.logStep)
}

// condition maps every edge weight and the window count of g through
// weight. Condition and the plan service's miss path build with it and
// the service's skip asks conditionsTo, so they cannot disagree on a grid
// point.
func (q grid) condition(g *profile.DCG) *profile.DCG {
	c := g.MapWeights(q.weight)
	c.SetWindows(q.snap(g.Windows()))
	return c
}

// conditionsTo reports whether condition(g) would equal cond, without
// building it (see profile.DCG.MapsTo).
func (q grid) conditionsTo(g, cond *profile.DCG) bool {
	return q.snap(g.Windows()) == cond.Windows() && g.MapsTo(cond, q.weight)
}

// Condition applies a stability layer (see grid) to a raw aggregated
// graph: Compile's is floorWeight and gridBand, and Condition(g, 0, 0)
// keeps every edge that weighs anything at its weight. The result is
// rebuilt in canonical edge order (see profile.DCG.MapWeights), so every
// derived quantity downstream — totals, site shares, policy thresholds —
// is a deterministic function of the edge multiset and the window count
// alone.
func Condition(g *profile.DCG, minWeight, band float64) *profile.DCG {
	if g == nil {
		return profile.NewDCG()
	}
	return newGrid(minWeight, band).condition(g)
}

// kindOf maps an applied inline decision to its plan kind.
func kindOf(d inline.Decision) Kind {
	switch {
	case d.NullGuard:
		return KindNullGuard
	case d.Guarded:
		return KindGuarded
	default:
		return KindStatic
	}
}

// Extract runs the policy-driven optimizer on a scratch clone of
// pristine and records the decisions that were actually applied —
// after the optimizer's own guard dedup and size bounding — as
// site-keyed plan decisions. The clone is discarded; pristine is never
// mutated.
func Extract(pristine *bytecode.Program, policy inline.Policy, g *profile.DCG, opts inline.Options) ([]Decision, error) {
	work := pristine.Clone()
	seen := map[int]bool{}
	var out []Decision
	opts.Observer = func(_ *bytecode.Method, site int, d inline.Decision) {
		if seen[site] {
			// One decision per site: nested rounds can revisit a site
			// only via a guard's fallback call, which must stay a call.
			return
		}
		seen[site] = true
		out = append(out, Decision{Site: site, Callee: d.Target.ID, Kind: kindOf(d)})
	}
	if _, err := inline.Optimize(work, policy, g, opts); err != nil {
		return nil, err
	}
	return canonicalize(out)
}

// Compile produces the plan for one program from an aggregated graph.
// It is a pure function of its inputs: the same (pristine, graph,
// params, prior) always yields the same plan, and when the stabilized
// decision set equals the prior's, the prior is returned *verbatim* —
// same epoch, same hash, byte-identical serialization. Only a genuine
// decision change mints a new epoch.
//
// So compiling a graph with the plan it compiled to as prior returns
// that prior — same elected set, and what the first compile retained is
// what the second finds warm and paying, retention being a function of
// the conditioned graph and the decision alone — which lets the plan
// service skip it.
func Compile(program string, pristine *bytecode.Program, g *profile.DCG, params Params, prior *Plan) (*Plan, error) {
	return compileConditioned(program, pristine, pristine.Version(), Condition(g, floorWeight, gridBand), params, prior)
}

// guardStillPays is the release test for a held guard: d's callee is
// still its site's dominant target in the conditioned graph, at an
// estimated share that at least breaks even. A prior read from disk may
// name any site and callee.
func guardStillPays(ev *inline.Evidence, d Decision) bool {
	target, share, ok := ev.Dominant(d.Site)
	return ok && target.ID == d.Callee && inline.GuardPays(share, target, 0)
}

// compileConditioned is Compile given the conditioned graph and
// pristine.Version(), an encode and a hash of the whole program that the
// plan service did once when it resolved the build.
func compileConditioned(program string, pristine *bytecode.Program, version string, cond *profile.DCG, params Params, prior *Plan) (*Plan, error) {
	policy, err := PolicyByName(params.Policy)
	if err != nil {
		return nil, err
	}
	// A prior compiled for a different build is not a prior at all: its
	// decisions name that build's method and site IDs, so neither
	// hysteresis retention nor epoch continuation may read it. The
	// epoch restarts at 1 for the new build — epochs are scoped to a
	// (program, version), which is also why a version flip can never
	// flap an existing version's epoch. Nor is one for another program
	// or compiled under another policy.
	if prior != nil && (prior.CheckVersion(version) != nil || prior.Program != program || prior.Policy != params.Policy) {
		prior = nil
	}
	decisions, err := Extract(pristine, policy, cond, inline.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", program, err)
	}

	// Hysteresis retention: a prior decision whose site the new graph no
	// longer elects survives while the site is still warm — and, if it
	// is guarded, while the cost model does not say it loses: its callee
	// is still the site's heaviest target, at or above the guard's
	// break-even share. That is the election test less the policy's
	// cutoff and the election margin, so a guard is elected above one
	// line and released below a lower one. A static or null-guard
	// inline has no slow path to lose on and is held by warmth alone.
	// Holding is otherwise free — the decision was applied to this
	// program before — and prevents epoch churn from weights oscillating
	// around a policy threshold. Never held: an inline of a method at a
	// call site of its own, elected where that method's body had been
	// spliced into a caller and applicable nowhere else — without the
	// decision that carried it the pulling VM would find it stale.
	if prior != nil {
		elected := map[int]bool{}
		for _, d := range decisions {
			elected[d.Site] = true
		}
		var ev *inline.Evidence // of cond, once a held guard asks
		for _, d := range prior.Decisions {
			if elected[d.Site] || cond.SiteWeightPercent(d.Site) < holdPct {
				continue
			}
			if d.Site >= 0 && d.Site < len(pristine.Sites) && pristine.Sites[d.Site].Owner == d.Callee {
				continue // a call of the site's own method: see above
			}
			if d.Kind == KindGuarded {
				if ev == nil {
					ev = inline.NewEvidence(pristine, cond)
				}
				if !guardStillPays(ev, d) {
					continue
				}
			}
			decisions = append(decisions, d)
		}
		if decisions, err = canonicalize(decisions); err != nil {
			return nil, err
		}
	}

	p := &Plan{Program: program, Version: version, Policy: params.Policy, Epoch: 1, Decisions: decisions}
	if prior != nil {
		if prior.Equal(p) {
			return prior, nil
		}
		p.Epoch = prior.Epoch + 1
	}
	p.Hash = p.ContentHash()
	return p, nil
}
