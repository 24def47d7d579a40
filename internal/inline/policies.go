package inline

import "gocbs/internal/bytecode"

// Trivial is the load-time policy used by the accuracy experiments'
// JIT-only baseline (§6.2): it inlines only trivial methods — bodies
// smaller than a calling sequence — at static call sites, leaving every
// other call observable to the profiler.
type Trivial struct{}

// Name identifies the policy.
func (Trivial) Name() string { return "trivial" }

// Plan implements Policy.
func (Trivial) Plan(prog *bytecode.Program, m *bytecode.Method, _ *Evidence) []Decision {
	var ds []Decision
	for _, cs := range ScanCalls(prog, m) {
		if cs.Op == bytecode.OpCallStatic && cs.Static.Trivial && cs.Static != m {
			ds = append(ds, Decision{PC: cs.PC, Target: cs.Static})
		}
	}
	return ds
}

// OldJikes models the conservative profile-directed inliner Jikes RVM
// had before this work (§5.1): profile data is used only to classify a
// call edge as hot (more than 1% of the DCG's total weight). Hot edges
// get enlarged size thresholds; profile data for non-hot edges is
// completely ignored, so cool monomorphic virtual sites are never
// guard-inlined.
type OldJikes struct {
	HotEdgePercent  float64 // edge weight share that makes a site hot
	StaticSizeLimit int     // always-inline threshold for static calls
	HotSizeLimit    int     // enlarged threshold at hot sites
}

// NewOldJikes returns the policy with its published-tuning defaults.
func NewOldJikes() *OldJikes {
	return &OldJikes{HotEdgePercent: 1.0, StaticSizeLimit: 10, HotSizeLimit: 48}
}

// Name identifies the policy.
func (*OldJikes) Name() string { return "old-jikes" }

// Plan implements Policy.
func (p *OldJikes) Plan(prog *bytecode.Program, m *bytecode.Method, ev *Evidence) []Decision {
	var ds []Decision
	for _, cs := range ScanCalls(prog, m) {
		hot := ev.SiteWeightPercent(cs.Site) > p.HotEdgePercent
		switch cs.Op {
		case bytecode.OpCallStatic:
			limit := p.StaticSizeLimit
			if hot {
				limit = p.HotSizeLimit
			}
			if cs.Static != m && len(cs.Static.Code) <= limit {
				ds = append(ds, Decision{PC: cs.PC, Target: cs.Static})
			}
		case bytecode.OpCallVirtual:
			if !hot {
				continue // non-hot profile data ignored
			}
			target, share, ok := ev.Dominant(cs.Site)
			if !ok || target == m || !guardShareOK(50, share, target) {
				continue
			}
			if len(target.Code) <= p.HotSizeLimit {
				ds = append(ds, Decision{PC: cs.PC, Target: target, Guarded: true})
			}
		}
	}
	return ds
}

// NewLinear is the paper's new Jikes RVM inliner (§5.1): edge weight
// feeds a linear function that computes the callee size threshold for
// the site — the hotter the site, the larger the callee it may inline
// — bounded by a maximum size. Virtual call sites guard-inline any
// target that accounts for more than 40% of the site's receiver
// distribution. It also repairs the old static logic: small callees
// inline even with no profile data at all.
type NewLinear struct {
	MinSize     int     // threshold at weight 0 (the repaired static rule)
	Slope       float64 // extra instructions of threshold per % of DCG weight
	MaxSize     int     // cap (avoid inlining truly massive methods)
	GuardShare  float64 // distribution share required for guarded inlining
	CHAMonoSize int     // CHA-monomorphic virtual calls inline statically up to this size
}

// NewNewLinear returns the policy with the tuning used in §6.3.
func NewNewLinear() *NewLinear {
	return &NewLinear{MinSize: 14, Slope: 10, MaxSize: 90, GuardShare: 40, CHAMonoSize: 14}
}

// Name identifies the policy.
func (*NewLinear) Name() string { return "new-linear" }

func (p *NewLinear) threshold(weightPct float64) int {
	t := float64(p.MinSize) + p.Slope*weightPct
	if t > float64(p.MaxSize) {
		return p.MaxSize
	}
	return int(t)
}

// Plan implements Policy.
func (p *NewLinear) Plan(prog *bytecode.Program, m *bytecode.Method, ev *Evidence) []Decision {
	var ds []Decision
	for _, cs := range ScanCalls(prog, m) {
		limit := p.threshold(ev.SiteWeightPercent(cs.Site))
		switch cs.Op {
		case bytecode.OpCallStatic:
			if cs.Static != m && len(cs.Static.Code) <= limit {
				ds = append(ds, Decision{PC: cs.PC, Target: cs.Static})
			}
		case bytecode.OpCallVirtual:
			if target, share, ok := ev.Dominant(cs.Site); ok {
				if guardShareOK(p.GuardShare, share, target) && target != m && len(target.Code) <= limit {
					ds = append(ds, Decision{PC: cs.PC, Target: target, Guarded: true})
					continue
				}
			}
			// Repaired static rule: a virtual call with exactly one
			// implementation program-wide inlines with a null guard.
			if impls := Implementations(prog, cs.Slot); len(impls) == 1 {
				t := impls[0]
				if t != m && len(t.Code) <= p.CHAMonoSize {
					ds = append(ds, Decision{PC: cs.PC, Target: t, NullGuard: true})
				}
			}
		}
	}
	return ds
}

// J9Static models J9's aggressive static inlining heuristics (§5.2):
// size-based inlining with no profile input, plus class-hierarchy
// analysis for monomorphic virtual sites.
type J9Static struct {
	StaticSizeLimit int
	CHAMonoSize     int
}

// NewJ9Static returns the baseline configuration of Figure 5 (right).
func NewJ9Static() *J9Static {
	return &J9Static{StaticSizeLimit: 36, CHAMonoSize: 28}
}

// Name identifies the policy.
func (*J9Static) Name() string { return "j9-static" }

// Plan implements Policy.
func (p *J9Static) Plan(prog *bytecode.Program, m *bytecode.Method, _ *Evidence) []Decision {
	var ds []Decision
	for _, cs := range ScanCalls(prog, m) {
		switch cs.Op {
		case bytecode.OpCallStatic:
			if cs.Static != m && len(cs.Static.Code) <= p.StaticSizeLimit {
				ds = append(ds, Decision{PC: cs.PC, Target: cs.Static})
			}
		case bytecode.OpCallVirtual:
			if impls := Implementations(prog, cs.Slot); len(impls) == 1 {
				t := impls[0]
				if t != m && len(t.Code) <= p.CHAMonoSize {
					ds = append(ds, Decision{PC: cs.PC, Target: t, NullGuard: true})
				}
			}
		}
	}
	return ds
}

// J9Dynamic layers the paper's profile-driven heuristics over
// J9Static (§5.2): a call site the profile says is cold has its static
// inlining suppressed entirely; a hot site gets enlarged thresholds
// and guarded inlining of dominant targets; everything in between
// behaves statically. With an inaccurate profile, genuinely hot sites
// look cold and lose their inlining — which is exactly how timer-only
// profiles end up *hurting* performance in Figure 5 (right).
type J9Dynamic struct {
	Static      *J9Static
	ColdPercent float64 // below this site weight, suppress inlining
	HotPercent  float64 // above this, boost thresholds
	HotBoost    int     // multiplier on static limits at hot sites
	GuardShare  float64
}

// NewJ9Dynamic returns the configuration used in Figure 5 (right).
func NewJ9Dynamic() *J9Dynamic {
	return &J9Dynamic{
		Static:      NewJ9Static(),
		ColdPercent: 0.05,
		HotPercent:  1.0,
		HotBoost:    2,
		GuardShare:  40,
	}
}

// Name identifies the policy.
func (*J9Dynamic) Name() string { return "j9-dynamic" }

// Plan implements Policy.
func (p *J9Dynamic) Plan(prog *bytecode.Program, m *bytecode.Method, ev *Evidence) []Decision {
	if ev.Total() == 0 {
		return p.Static.Plan(prog, m, ev)
	}
	var ds []Decision
	for _, cs := range ScanCalls(prog, m) {
		w := ev.SiteWeightPercent(cs.Site)
		if w < p.ColdPercent {
			continue // cold: static heuristics overridden, no inlining
		}
		hot := w >= p.HotPercent
		staticLimit := p.Static.StaticSizeLimit
		chaLimit := p.Static.CHAMonoSize
		if hot {
			staticLimit *= p.HotBoost
			chaLimit *= p.HotBoost
		}
		switch cs.Op {
		case bytecode.OpCallStatic:
			if cs.Static != m && len(cs.Static.Code) <= staticLimit {
				ds = append(ds, Decision{PC: cs.PC, Target: cs.Static})
			}
		case bytecode.OpCallVirtual:
			if hot {
				if target, share, ok := ev.Dominant(cs.Site); ok &&
					guardShareOK(p.GuardShare, share, target) && target != m &&
					len(target.Code) <= staticLimit {
					ds = append(ds, Decision{PC: cs.PC, Target: target, Guarded: true})
					continue
				}
			}
			if impls := Implementations(prog, cs.Slot); len(impls) == 1 {
				t := impls[0]
				if t != m && len(t.Code) <= chaLimit {
					ds = append(ds, Decision{PC: cs.PC, Target: t, NullGuard: true})
				}
			}
		}
	}
	return ds
}
