// Package mincover implements minimum-coverage call instrumentation
// after Chen/Hoag/Mestre/Pupyrev ("Minimum Coverage Instrumentation"):
// instead of counting every dynamic call (exhaustive) or sampling a
// biased subset (CBS), it places probes on a small subset of call
// points chosen so that flow conservation on the *static* call graph
// recovers every edge frequency exactly from the probe counts alone.
//
// The pipeline has three stages, each with its own file:
//
//   - graph.go: extract the static call graph from a linked
//     bytecode.Program, conservatively over virtual dispatch (RTA:
//     every OpNew-instantiated class contributes its vtable targets),
//     and classify each call point's occurrences against its method's
//     CFG — anchor occurrences execute exactly once per completed
//     invocation, dead occurrences never execute.
//   - cover.go: shrink the all-points probe set by reverse deletion,
//     keeping only points the conservation system cannot derive.
//   - profiler.go: the vm.Profiler that increments probed points at
//     runtime and solves the system back to the full DCG.
//
// The recovered graph is exact (not an estimate) on every run that
// completes normally; the differential tests hold it byte-identical to
// the exhaustive profiler's graph across the benchmark suite and a
// corpus of generated programs.
package mincover

import (
	"sort"

	"gocbs/internal/bytecode"
)

// StaticEdge is one possible dynamic call edge: caller method, global
// call-site ID, and a callee the site may dispatch to. Static calls
// have exactly one callee; virtual sites get one edge per RTA-live
// vtable target. Field meanings match profile.Edge.
type StaticEdge struct {
	Caller, Site, Callee int
}

// Point identifies one instrumentable call location: the method whose
// body contains call instructions carrying Site. Inlining splices call
// instructions while keeping their original site IDs, so the same site
// can occur in several methods (and several times within one method);
// the (method, site) pair is the granularity a probe filter can
// actually distinguish at runtime, since vm.CallListener reports the
// executing caller and the site.
type Point struct {
	Method, Site int
}

// pointInfo accumulates what the extractor learns about one point.
// Every edge belongs to exactly one point (its Caller+Site), so edges
// partition across points.
type pointInfo struct {
	edges []int // indexes into Graph.Edges, canonical order

	// Occurrence counts of this point's call instructions in the
	// method body, by CFG class. occAnchor counts occurrences in
	// blocks that execute exactly once per completed invocation;
	// occDead counts statically unreachable occurrences.
	occTotal, occAnchor, occDead int

	// closure marks a point with at least one OpCallClosure occurrence.
	// Closure dispatch is not class-bound: the static target set is the
	// whole-program set of OpMakeClosure targets, a superset so coarse
	// that deriving such a point's edges from conservation alone is not
	// attempted — MinCover demotes closure points to always-probed.
	closure bool
}

// knownZero reports that every occurrence of the point is statically
// unreachable: its edges are provably zero and need no probe.
func (pi *pointInfo) knownZero() bool { return pi.occTotal == pi.occDead }

// anchorMult returns how many times the point's call instructions
// execute per completed invocation of the enclosing method, when that
// number is a compile-time constant: every live occurrence sits in an
// anchor block. ok is false when any occurrence is in a plain
// (conditional or looping) block.
func (pi *pointInfo) anchorMult() (mult int, ok bool) {
	if pi.occAnchor > 0 && pi.occAnchor+pi.occDead == pi.occTotal {
		return pi.occAnchor, true
	}
	return 0, false
}

// Graph is the static call graph of a program, annotated with the CFG
// facts the conservation solver needs. It holds plain integers (method
// IDs, site IDs) so it stays valid across program clones.
type Graph struct {
	NumMethods int

	// Edges in canonical (Caller, Site, Callee) order.
	Edges []StaticEdge

	// Points in canonical (Method, Site) order.
	Points []Point

	info map[Point]*pointInfo

	// in[m] lists indexes of edges whose Callee is m, ascending.
	in [][]int

	// anchors[m] lists m's points with a positive anchorMult, in
	// canonical order: measuring any one of them (or deriving its
	// sitecount) yields m's total entry count by division.
	anchors [][]Point
}

// IsClosurePoint reports whether p contains closure-call instructions.
func (g *Graph) IsClosurePoint(p Point) bool {
	pi := g.info[p]
	return pi != nil && pi.closure
}

// Extract builds the static call graph of prog.
//
// Virtual dispatch is resolved conservatively with rapid type analysis:
// MJ objects are created only by OpNew, so the receiver of any virtual
// call is an instance of a class that appears as an OpNew operand
// somewhere in the program. A virtual site on slot s therefore gets one
// edge per distinct implementation reachable through the vtables of
// those instantiated classes. This is a sound superset of the dynamic
// edges — the cost is extra always-zero edges at megamorphic sites,
// which the conservation solver resolves to zero (see DESIGN.md for
// when this conservatism costs probes that CBS would not pay).
func Extract(prog *bytecode.Program) *Graph {
	g := &Graph{
		NumMethods: len(prog.Methods),
		info:       make(map[Point]*pointInfo),
	}

	// RTA instantiation pass; also detect OpHalt anywhere. A halt
	// unwinds every live frame without completing those invocations,
	// which would break the anchor accounting ("executes exactly once
	// per completed invocation"), so its presence disables anchor
	// classification program-wide. The mj compiler never emits OpHalt,
	// so in practice this costs nothing.
	instantiated := make([]bool, len(prog.Classes))
	anchorsSafe := true
	closureSeen := make(map[int]bool)
	var closureTargets []int // closure-RTA: every OpMakeClosure target
	for _, m := range prog.Methods {
		if m == nil {
			continue
		}
		for _, ins := range m.Code {
			switch ins.Op {
			case bytecode.OpNew:
				if c := int(ins.A); c >= 0 && c < len(instantiated) {
					instantiated[c] = true
				}
			case bytecode.OpMakeClosure:
				if t := int(ins.A); !closureSeen[t] {
					closureSeen[t] = true
					closureTargets = append(closureTargets, t)
				}
			case bytecode.OpHalt:
				anchorsSafe = false
			}
		}
	}
	sort.Ints(closureTargets)

	// Virtual targets per vtable slot, memoized: the distinct
	// implementations visible from any instantiated class.
	vtargets := make(map[int][]int)
	resolve := func(slot int) []int {
		if t, ok := vtargets[slot]; ok {
			return t
		}
		seen := make(map[int]bool)
		var out []int
		for ci, c := range prog.Classes {
			if c == nil || !instantiated[ci] || slot >= len(c.VTable) {
				continue
			}
			if impl := c.VTable[slot]; impl != nil && !seen[impl.ID] {
				seen[impl.ID] = true
				out = append(out, impl.ID)
			}
		}
		sort.Ints(out)
		vtargets[slot] = out
		return out
	}

	edgeIdx := make(map[StaticEdge]int)
	for _, m := range prog.Methods {
		if m == nil || len(m.Code) == 0 {
			continue
		}
		cls := classifyPCs(m.Code, anchorsSafe)
		for pc, ins := range m.Code {
			if !ins.Op.IsCall() {
				continue
			}
			p := Point{Method: m.ID, Site: int(ins.B)}
			pi := g.info[p]
			if pi == nil {
				pi = &pointInfo{}
				g.info[p] = pi
				g.Points = append(g.Points, p)
			}
			pi.occTotal++
			switch cls[pc] {
			case pcAnchor:
				pi.occAnchor++
			case pcDead:
				pi.occDead++
			}
			var targets []int
			switch ins.Op {
			case bytecode.OpCallStatic:
				targets = []int{int(ins.A)}
			case bytecode.OpCallClosure:
				// Closure dispatch is not class-bound; the sound target
				// set is every closure body created anywhere in the
				// program. The point is marked so MinCover keeps it
				// probed rather than trusting this coarse superset.
				targets = closureTargets
				pi.closure = true
			default:
				slot, _ := bytecode.DecodeVirtual(ins.A)
				targets = resolve(slot)
			}
			for _, t := range targets {
				e := StaticEdge{Caller: m.ID, Site: p.Site, Callee: t}
				if _, ok := edgeIdx[e]; !ok {
					edgeIdx[e] = len(g.Edges)
					g.Edges = append(g.Edges, e)
				}
			}
		}
	}

	// Canonicalize: sort edges and points, then rebuild the per-point
	// and per-method indexes in that order.
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Callee < b.Callee
	})
	sort.Slice(g.Points, func(i, j int) bool {
		a, b := g.Points[i], g.Points[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Site < b.Site
	})
	g.in = make([][]int, g.NumMethods)
	for i, e := range g.Edges {
		g.info[Point{Method: e.Caller, Site: e.Site}].edges = append(
			g.info[Point{Method: e.Caller, Site: e.Site}].edges, i)
		if e.Callee >= 0 && e.Callee < g.NumMethods {
			g.in[e.Callee] = append(g.in[e.Callee], i)
		}
	}
	g.anchors = make([][]Point, g.NumMethods)
	for _, p := range g.Points {
		if _, ok := g.info[p].anchorMult(); ok {
			g.anchors[p.Method] = append(g.anchors[p.Method], p)
		}
	}
	return g
}
