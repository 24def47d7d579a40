package inline

import (
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Policy decides which call sites of a method to inline, given what a
// dynamic call graph says of them (nothing, for purely static
// heuristics).
type Policy interface {
	Name() string
	Plan(prog *bytecode.Program, m *bytecode.Method, ev *Evidence) []Decision
}

// Options bounds the optimizer.
type Options struct {
	// MaxDepth is how many plan/apply rounds run per method, enabling
	// nested inlining (a callee's calls become candidates once it has
	// been spliced in).
	MaxDepth int
	// MaxMethodSize stops growth: no decision is applied that would
	// push the method past this many instructions. This is the paper's
	// "bounded by a maximum allowable size to avoid observed
	// performance degradations when inlining truly massive methods".
	MaxMethodSize int
	// Observer, when non-nil, is invoked once per *applied* decision
	// with the global call-site ID the decision fired at. Splicing
	// shifts PCs but call instructions keep their site IDs, so (site,
	// target) pairs are the stable coordinates a recorded plan can be
	// replayed from on a fresh clone of the same program.
	Observer func(m *bytecode.Method, site int, d Decision)
}

// DefaultOptions returns the optimizer bounds used by the experiments.
func DefaultOptions() Options {
	return Options{MaxDepth: 3, MaxMethodSize: 400}
}

// Report summarizes one optimization pass.
type Report struct {
	MethodsOptimized int
	InlinesApplied   int
	GuardedInlines   int
	TotalCodeSize    int // final instruction count across optimized methods
}

// Optimize applies policy to every non-trivial method of prog,
// in-place, and returns a report. Trivial methods keep their bodies
// (they are inlined into callers, and calling them is already cheap).
func Optimize(prog *bytecode.Program, policy Policy, g *profile.DCG, opts Options) (Report, error) {
	var rep Report
	ev := NewEvidence(prog, g)
	for _, m := range prog.Methods {
		n, guarded, err := optimizeMethod(prog, policy, ev, m, opts)
		if err != nil {
			return rep, err
		}
		if n > 0 {
			rep.MethodsOptimized++
			rep.InlinesApplied += n
			rep.GuardedInlines += guarded
		}
		rep.TotalCodeSize += len(m.Code)
	}
	return rep, nil
}

// JITOnly is the load-time preparation every VM in the fleet, the
// daemon's plan compiler and the experiment harness give a freshly
// compiled program: the paper's §6.2 "JIT-only" configuration, trivial
// methods inlined and every other call left observable. A plan names
// call sites by ID, so its compiler and its appliers must all start
// from the program this one function produces.
func JITOnly(prog *bytecode.Program) error {
	_, err := Optimize(prog, Trivial{}, nil, DefaultOptions())
	return err
}

// OptimizeMethod runs plan/apply rounds on one method and returns how
// many inlines (total, guarded) were applied.
//
// A site that was guard-inlined in an earlier round is never guarded
// again: the surviving call at that site is the guard's *fallback*,
// which only executes when the guard has already failed, so re-inlining
// it with the same guard would be a pure pessimization.
func OptimizeMethod(prog *bytecode.Program, policy Policy, g *profile.DCG, m *bytecode.Method, opts Options) (int, int, error) {
	return optimizeMethod(prog, policy, NewEvidence(prog, g), m, opts)
}

func optimizeMethod(prog *bytecode.Program, policy Policy, ev *Evidence, m *bytecode.Method, opts Options) (int, int, error) {
	total, guarded := 0, 0
	guardedSites := map[int]bool{}
	siteOf := func(pc int) int { return int(m.Code[pc].B) }
	for depth := 0; depth < opts.MaxDepth; depth++ {
		plan := policy.Plan(prog, m, ev)
		kept := plan[:0]
		for _, d := range plan {
			if (d.Guarded || d.NullGuard) && guardedSites[siteOf(d.PC)] {
				continue
			}
			kept = append(kept, d)
		}
		plan = boundPlan(m, kept, opts.MaxMethodSize)
		if len(plan) == 0 {
			break
		}
		// Capture site IDs before Apply: splicing shifts the PCs the
		// decisions are keyed by, but not the site numbering.
		sites := make([]int, len(plan))
		for i, d := range plan {
			sites[i] = siteOf(d.PC)
			if d.Guarded || d.NullGuard {
				guardedSites[sites[i]] = true
			}
		}
		if err := Apply(prog, m, plan); err != nil {
			return total, guarded, err
		}
		if opts.Observer != nil {
			for i, d := range plan {
				opts.Observer(m, sites[i], d)
			}
		}
		total += len(plan)
		for _, d := range plan {
			if d.Guarded || d.NullGuard {
				guarded++
			}
		}
	}
	return total, guarded, nil
}

// boundPlan drops decisions (lowest priority last) that would grow the
// method past the size cap; decisions are assumed ordered by priority.
func boundPlan(m *bytecode.Method, plan []Decision, maxSize int) []Decision {
	size := len(m.Code)
	var kept []Decision
	for _, d := range plan {
		cost := len(d.Target.Code) + d.Target.NArgs + 4 // body + stores + guard slop
		if size+cost > maxSize {
			continue
		}
		if d.Target == m {
			continue
		}
		size += cost
		kept = append(kept, d)
	}
	return kept
}

// guardBreakeven returns the dominant-target share (0–100) at which a
// method-test-guarded inline breaks even under the default cost model.
// The guard's fast path saves the call instruction (2), dispatch (4),
// and call overhead (11) but pays the argument stores (nargs), the
// receiver reload + method test + branch (5); the slow path pays the
// stores, the guard, and the argument reloads on top of the full
// dispatch (2·nargs + 5 extra). Solving share·win = (1−share)·loss gives
// the threshold.
func guardBreakeven(nargs int) float64 {
	win := 12 - nargs
	if win <= 0 {
		return 200 // arity so high the guard can never pay off
	}
	loss := 2*nargs + 5
	return float64(loss) / float64(loss+win) * 100
}

// GuardPays reports whether a method-test guard on target, taken by
// share (0–100) of its site's calls, clears the cost model's break-even
// by margin points. The policies elect with a 5-point margin, which
// keeps marginal sites out (the paper's production inliners embed the
// same economics in their tuned thresholds); the plan compiler releases
// a guard it holds at margin 0, so the margin is the whole hysteresis
// band and the two lines cannot drift apart. The share is an estimate
// with its evidence counted in (Evidence.Dominant), never a raw ratio.
func GuardPays(share float64, target *bytecode.Method, margin float64) bool {
	return share >= guardBreakeven(target.NArgs)+margin
}

// guardShareOK applies both the policy's distribution rule (the
// paper's 40% cutoff) and the cost model's break-even share.
func guardShareOK(policyShare, share float64, target *bytecode.Method) bool {
	return share > policyShare && GuardPays(share, target, 5)
}

// familyPrior is α, what a site's method family does elsewhere counted
// as so many samples at the site, and what the family's implementations
// count for when nothing is known of it elsewhere. A sampled graph holds
// one or two samples on many sites, and one sample reads "100 %": with
// k_c of a site's n samples on callee c, the site's share of c is
// (k_c + α·π_c)/(n + α) — its own ratio when n ≫ α, mostly its prior when
// n is 1. The prior is the rest of c's family (the root class of its
// hierarchy and its vtable slot: slot numbers are per hierarchy): with
// w_c the graph's weight on c, W_f its weight on the family and n_f the
// site's, π_c = (w_c − k_c + α/I_f)/(W_f − n_f + α) over the family's I_f
// implementations — what the same call does at its other sites, and
// uniform over the hierarchy where it is made nowhere else. The site is
// left out of its own prior, or a site alone in its family would shrink
// toward its own samples. The value sits on a plateau (EXPERIMENTS E16).
const familyPrior = 4

// Evidence is a profile as one Optimize or OptimizeMethod call reads it:
// what the graph holds per call site and per method family, summed once
// in canonical edge order, and its window count. It is not kept beyond
// the call: the adaptive system recompiles from a graph that is still
// growing.
type Evidence struct {
	prog     *bytecode.Program
	total    float64
	windows  float64
	sites    map[int]*siteEvidence
	callees  map[int]float64    // weight on a virtual method, all sites
	families map[family]float64 // weight on a family's methods, all sites
	impls    map[family]float64 // the family's methods in the program
}

type family struct {
	root *bytecode.Class
	slot int
}

type siteEvidence struct {
	n       float64
	targets []siteTarget
}

// siteTarget is one callee's weight at a site and, for a virtual callee,
// its family (a nil root for any other).
type siteTarget struct {
	callee int
	weight float64
	fam    family
}

// familyOf returns the family of method id, if it names a virtual method.
func familyOf(prog *bytecode.Program, id int) (family, bool) {
	if id < 0 || id >= len(prog.Methods) || prog.Methods[id].VSlot < 0 || prog.Methods[id].Class == nil {
		return family{}, false
	}
	root := prog.Methods[id].Class
	for root.Super != nil {
		root = root.Super
	}
	return family{root, prog.Methods[id].VSlot}, true
}

// NewEvidence reads g (nil: no profile) for prog.
func NewEvidence(prog *bytecode.Program, g *profile.DCG) *Evidence {
	ev := &Evidence{prog: prog, sites: map[int]*siteEvidence{}, callees: map[int]float64{},
		families: map[family]float64{}, impls: map[family]float64{}}
	if g == nil {
		return ev
	}
	ev.total, ev.windows = g.Total(), g.Windows()
	for _, e := range g.Edges() {
		w := g.Weight(e)
		s := ev.sites[e.Site]
		if s == nil {
			s = &siteEvidence{}
			ev.sites[e.Site] = s
		}
		s.n += w
		i := 0
		for i < len(s.targets) && s.targets[i].callee != e.Callee {
			i++
		}
		if i == len(s.targets) {
			f, _ := familyOf(prog, e.Callee)
			s.targets = append(s.targets, siteTarget{callee: e.Callee, fam: f})
		}
		t := &s.targets[i]
		t.weight += w
		if t.fam.root != nil {
			ev.callees[e.Callee] += w
			ev.families[t.fam] += w
		}
	}
	for id := range prog.Methods {
		if f, ok := familyOf(prog, id); ok {
			ev.impls[f]++
		}
	}
	return ev
}

// Total returns the graph's total weight.
func (ev *Evidence) Total() float64 { return ev.total }

// SiteWeightPercent returns the share (0–100) of the graph's weight on
// the call site, across all its targets.
func (ev *Evidence) SiteWeightPercent(site int) float64 {
	s := ev.sites[site]
	if s == nil || ev.total == 0 {
		return 0
	}
	return s.n / ev.total * 100
}

// Dominant returns the callee with the largest share of a site's calls
// and that share (0–100), as estimated from the site's samples and its
// family's (see familyPrior); ok is false when the graph holds nothing on
// the site, or nothing on a method of the program. The samples of one
// sampling window are one draw, STRIDE calls apart in one burst: a site's
// n counts for no more than the graph's windows, and its k_c for as much
// less (a graph that counts no windows caps nothing).
func (ev *Evidence) Dominant(site int) (m *bytecode.Method, share float64, ok bool) {
	s := ev.sites[site]
	if s == nil || s.n <= 0 {
		return nil, 0, false
	}
	n, scale := s.n, 1.0
	if ev.windows > 0 && ev.windows < s.n {
		n, scale = ev.windows, ev.windows/s.n
	}
	for i := range s.targets {
		t := &s.targets[i]
		if t.callee < 0 || t.callee >= len(ev.prog.Methods) {
			continue
		}
		est := (scale*t.weight + familyPrior*ev.prior(s, t)) / (n + familyPrior) * 100
		if m == nil || est > share || est == share && t.callee < m.ID {
			m, share = ev.prog.Methods[t.callee], est
		}
	}
	return m, share, m != nil
}

// prior is π_c of callee t at site s (see familyPrior); a callee of no
// family has the site's own ratio.
func (ev *Evidence) prior(s *siteEvidence, t *siteTarget) float64 {
	if t.fam.root == nil {
		return t.weight / s.n
	}
	var here float64 // the site's weight on t's family
	for _, u := range s.targets {
		if u.fam == t.fam {
			here += u.weight
		}
	}
	return (max(ev.callees[t.callee]-t.weight, 0) + familyPrior/ev.impls[t.fam]) /
		(max(ev.families[t.fam]-here, 0) + familyPrior)
}
