package plan

import (
	"fmt"
	"math"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
)

// Params configures plan compilation: which inline policy decides, and
// the stability layer that keeps snapshot-to-snapshot weight jitter
// from flapping decisions.
type Params struct {
	// Policy names the inline policy (see PolicyByName).
	Policy string
	// MinWeight is the minimum-weight floor: edges lighter than this
	// are dropped before the policy sees the graph, so edges that
	// flicker in and out of existence at negligible weight cannot
	// change the plan.
	MinWeight float64
	// Band is the hysteresis band: surviving weights are snapped to a
	// geometric grid with ratio (1+Band), so a weight must move by
	// roughly a whole band before the policy sees any change at all.
	// Zero disables quantization.
	Band float64
	// HoldSharePct keeps a prior decision alive when the current graph
	// no longer elects it but its call site still carries at least this
	// share (0–100) of the conditioned graph's weight. Adding a
	// decision requires clearing the policy's thresholds; dropping one
	// additionally requires the site to have gone genuinely cold —
	// asymmetric thresholds are what make this hysteresis.
	HoldSharePct float64
	// Opts bounds the underlying optimizer.
	Opts inline.Options
}

// DefaultParams returns the compilation parameters cbsd serves with.
func DefaultParams() Params {
	return Params{
		Policy:       "new-linear",
		MinWeight:    1,
		Band:         0.25,
		HoldSharePct: 0.05,
		Opts:         inline.DefaultOptions(),
	}
}

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

// Condition applies the stability layer to a raw aggregated graph:
// edges below the floor are dropped, and surviving weights snap to a
// geometric grid anchored at the floor. The grid is memoryless — a
// weight quantizes the same way regardless of any previous snapshot —
// which is what keeps conditioning restart-stable: a daemon that
// reloads its checkpoint conditions the restored graph exactly as the
// previous incarnation conditioned the live one.
//
// The result is rebuilt in canonical edge order (see
// profile.DCG.FilterBelow), so every derived quantity downstream —
// totals, site shares, policy thresholds — is a deterministic function
// of the edge multiset alone.
func Condition(g *profile.DCG, minWeight, band float64) *profile.DCG {
	if g == nil {
		return profile.NewDCG()
	}
	floor := minWeight
	if floor <= 0 {
		floor = math.SmallestNonzeroFloat64
	}
	out := g.FilterBelow(floor)
	if band <= 0 {
		return out
	}
	logStep := math.Log1p(band)
	return out.MapWeights(func(_ profile.Edge, w float64) float64 {
		idx := math.Round(math.Log(w/floor) / logStep)
		return floor * math.Exp(idx*logStep)
	})
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
func Compile(program string, pristine *bytecode.Program, g *profile.DCG, params Params, prior *Plan) (*Plan, error) {
	policy, err := PolicyByName(params.Policy)
	if err != nil {
		return nil, err
	}
	version := pristine.Version()
	// A prior compiled for a different build is not a prior at all: its
	// decisions name that build's method and site IDs, so neither
	// hysteresis retention nor epoch continuation may read it. The
	// epoch restarts at 1 for the new build — epochs are scoped to a
	// (program, version), which is also why a version flip can never
	// flap an existing version's epoch.
	if prior != nil && prior.CheckVersion(version) != nil {
		prior = nil
	}
	cond := Condition(g, params.MinWeight, params.Band)
	decisions, err := Extract(pristine, policy, cond, params.Opts)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", program, err)
	}

	// Hysteresis retention: a prior decision whose site the new graph
	// no longer elects survives as long as the site is still warm. The
	// retained decision is known-safe — it was applied to this program
	// before, and guarded kinds keep their fallback dispatch — so
	// holding it costs nothing while preventing epoch churn from
	// weights oscillating around a policy threshold.
	if prior != nil && prior.Program == program && prior.Policy == params.Policy {
		bySite := map[int]bool{}
		for _, d := range decisions {
			bySite[d.Site] = true
		}
		retained := false
		for _, d := range prior.Decisions {
			if bySite[d.Site] {
				continue
			}
			if cond.SiteWeightPercent(d.Site) >= params.HoldSharePct {
				decisions = append(decisions, d)
				retained = true
			}
		}
		if retained {
			if decisions, err = canonicalize(decisions); err != nil {
				return nil, err
			}
		}
	}

	p := &Plan{Program: program, Version: version, Policy: params.Policy, Epoch: 1, Decisions: decisions}
	if prior != nil && prior.Equal(p) {
		return prior, nil
	}
	if prior != nil && prior.Program == program && prior.Policy == params.Policy {
		p.Epoch = prior.Epoch + 1
	}
	p.Hash = p.ContentHash()
	return p, nil
}
