// Package plan closes the paper's collect-and-exploit loop at fleet
// scale: it compiles the aggregated dynamic call graph that cbsd
// collects from many VMs into a deterministic, versioned *inlining
// plan* — a per-program list of (call site → callee) decisions produced
// by the inline policies — that VMs pull back and apply to their own
// copies of the program (the AutoFDO-shaped "profiles flow up,
// decisions flow down" architecture).
//
// A plan is decoupled from any one VM's bytecode addresses by keying
// decisions on global call-site IDs rather than PCs: splicing shifts
// PCs, but call instructions keep their site IDs, so a plan extracted
// on one clone of a program replays exactly on any other clone.
//
// Determinism is the load-bearing property. Compile is a pure function
// of (pristine program, conditioned graph, params, prior plan): the
// same aggregated graph always yields the same decisions, the same
// content hash, and — via the prior — the same epoch, so identical
// graphs serve byte-identical plans even across daemon restarts. A
// stability layer (a minimum-weight floor, geometric weight
// quantization, and prior-decision retention with an asymmetric drop
// threshold) keeps small weight jitter between snapshots from flapping
// decisions and incrementing epochs.
package plan

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"slices"
	"sort"
)

// Kind says how a plan decision must be applied at its call site.
type Kind uint8

// Decision kinds. Static decisions splice the callee directly; guarded
// decisions keep a method-test guard with the original dispatch as
// fallback; null-guard decisions protect a CHA-monomorphic inline with
// a nil test.
const (
	KindStatic Kind = iota
	KindGuarded
	KindNullGuard
)

func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindGuarded:
		return "guarded"
	case KindNullGuard:
		return "null-guard"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Decision is one plan entry: inline method Callee at global call site
// Site. Sites are program-global IDs, stable under splicing, so a
// decision is meaningful on any clone of the program the plan was
// compiled for.
type Decision struct {
	Site   int
	Callee int
	Kind   Kind
}

// Plan is a versioned set of inlining decisions for one program.
//
// Epoch increases monotonically each time the decision set actually
// changes; recompiling from a graph that yields the same decisions
// returns the prior plan verbatim. Hash is a content hash over
// (Program, Policy, Decisions) — deliberately excluding Epoch — so two
// plans with equal hashes carry identical decisions regardless of how
// many epochs each side has seen.
type Plan struct {
	Program string
	// Version is the content-addressed identity of the program build
	// the plan was compiled for (bytecode.Program.Version of the
	// pristine program). Decisions name method and site IDs, which are
	// meaningless in any other build — a puller must refuse a plan
	// whose Version is not its own program's (CheckVersion is that rule).
	Version   string
	Policy    string
	Epoch     uint64
	Hash      uint64
	Decisions []Decision
}

// canonicalize sorts decisions by site and verifies the one-per-site
// invariant the wire format and the applier rely on.
func canonicalize(ds []Decision) ([]Decision, error) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Site < ds[j].Site })
	for i := 1; i < len(ds); i++ {
		if ds[i].Site == ds[i-1].Site {
			return nil, fmt.Errorf("plan: duplicate decision for site %d", ds[i].Site)
		}
	}
	return ds, nil
}

// ContentHash computes the FNV-1a hash of the plan's identifying
// content: program, policy, and the canonical decision list. Epoch is
// excluded on purpose (see Plan).
func (p *Plan) ContentHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	h.Write([]byte(p.Program))
	h.Write([]byte{0})
	// Guarded inclusion: a plan built without a version hashes as it
	// did before plans carried one.
	if p.Version != "" {
		h.Write([]byte(p.Version))
		h.Write([]byte{0})
	}
	h.Write([]byte(p.Policy))
	h.Write([]byte{0})
	for _, d := range p.Decisions {
		writeU64(uint64(int64(d.Site)))
		writeU64(uint64(int64(d.Callee)))
		h.Write([]byte{byte(d.Kind)})
	}
	return h.Sum64()
}

// Equal reports whether two plans carry identical decisions for the
// same program build and policy (epochs and hashes are not compared;
// compare those separately when byte identity matters).
func (p *Plan) Equal(o *Plan) bool {
	if p == nil || o == nil {
		return p == o
	}
	return p.Program == o.Program && p.Version == o.Version &&
		p.Policy == o.Policy && slices.Equal(p.Decisions, o.Decisions)
}

// programNameRE limits program names to a filesystem- and URL-safe
// charset: plans are persisted under names derived from them and
// requested via query parameters.
var programNameRE = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// ValidProgramName reports whether name is acceptable as a plan's
// program key.
func ValidProgramName(name string) bool {
	return programNameRE.MatchString(name)
}
