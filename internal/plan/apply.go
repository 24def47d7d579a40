package plan

import (
	"fmt"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
)

// planPolicy adapts a Plan into an inline.Policy: instead of consulting
// a profile, it elects exactly the call sites the plan names, with the
// kind the plan prescribes. Running it through inline.Optimize reuses
// the optimizer's machinery — per-round re-scanning (so nested inlines
// spliced in by one round become matchable in the next), guard dedup,
// and method-size bounding — for free.
type planPolicy struct {
	plan   *Plan
	bySite map[int]Decision
	// matched records plan sites that produced at least one applied
	// decision; after the optimizer finishes, any plan site not in here
	// was skipped — its decision is stale for this build of the
	// program (missing site, wrong kind, wrong target layout).
	matched map[int]bool
}

// Name implements inline.Policy.
func (p *planPolicy) Name() string {
	return fmt.Sprintf("plan(%s@%d)", p.plan.Policy, p.plan.Epoch)
}

// Plan implements inline.Policy. Decisions that do not match the
// program's actual call sites — wrong kind for the instruction, callee
// out of range, callee not in the virtual slot a guarded decision
// needs — are skipped rather than failing the whole application: a
// plan is advisory, and a VM must stay healthy under a plan compiled
// for a slightly different build of the program.
func (p *planPolicy) Plan(prog *bytecode.Program, m *bytecode.Method, _ *inline.Evidence) []inline.Decision {
	var ds []inline.Decision
	for _, cs := range inline.ScanCalls(prog, m) {
		d, ok := p.bySite[cs.Site]
		if !ok || d.Callee < 0 || d.Callee >= len(prog.Methods) {
			continue
		}
		target := prog.Methods[d.Callee]
		if target == nil || target == m {
			continue
		}
		switch cs.Op {
		case bytecode.OpCallStatic:
			// A static site must name its real target and use a direct
			// splice; anything else is a stale plan entry.
			if d.Kind != KindStatic || cs.Static != target {
				continue
			}
			p.matched[cs.Site] = true
			ds = append(ds, inline.Decision{PC: cs.PC, Target: target})
		case bytecode.OpCallVirtual:
			switch d.Kind {
			case KindGuarded:
				if target.VSlot != cs.Slot {
					continue
				}
				p.matched[cs.Site] = true
				ds = append(ds, inline.Decision{PC: cs.PC, Target: target, Guarded: true})
			case KindNullGuard:
				p.matched[cs.Site] = true
				ds = append(ds, inline.Decision{PC: cs.PC, Target: target, NullGuard: true})
			}
		}
	}
	return ds
}

// ApplyResult is inline.Optimize's report plus the plan-application
// accounting that used to be silently discarded.
type ApplyResult struct {
	inline.Report
	// SkippedStale counts plan decisions that never matched a call site
	// in this build of the program — the signature of a plan compiled
	// for a different build. Zero on a version-matched application.
	SkippedStale int
}

// Apply rewrites prog in place according to the plan, using the same
// bounded optimizer the policies run under, and reports what was
// inlined — and how many plan decisions were skipped as stale, so a
// mismatched fleet degrades loudly instead of quietly. Callers that
// need to keep an unoptimized copy (the pull loop's kill switch does)
// must pass a clone.
func Apply(prog *bytecode.Program, p *Plan, opts inline.Options) (ApplyResult, error) {
	bySite := make(map[int]Decision, len(p.Decisions))
	for _, d := range p.Decisions {
		bySite[d.Site] = d
	}
	pol := &planPolicy{plan: p, bySite: bySite, matched: make(map[int]bool)}
	rep, err := inline.Optimize(prog, pol, nil, opts)
	res := ApplyResult{Report: rep}
	if err != nil {
		return res, err
	}
	for site := range bySite {
		if !pol.matched[site] {
			res.SkippedStale++
		}
	}
	return res, nil
}
