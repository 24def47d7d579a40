// Package inline implements the client optimization of the paper:
// profile-directed method inlining. It contains a bytecode inlining
// transformer (callee splicing with local remapping, constant-pool
// merging, return rewriting, and guarded inlining of virtual calls via
// exact-class tests with a fallback dispatch) and the inlining policies
// evaluated in §5: the old conservative Jikes RVM inliner, the paper's
// new linear-threshold inliner, and J9's static and dynamic heuristics.
package inline

import (
	"fmt"
	"sort"

	"gocbs/internal/bytecode"
)

// Decision is one inlining action: replace the call at PC in a method
// with Target's body. For virtual calls Guarded must be set: a
// method-test guard compares the receiver's vtable entry against
// Target (so receivers of any class that resolves the slot to Target
// take the fast path, including subclasses that merely inherit it);
// all other receivers fall back to the original virtual dispatch. For
// CHA-proven monomorphic virtual calls NullGuard substitutes a cheaper
// nil test for the method test.
type Decision struct {
	PC        int
	Target    *bytecode.Method
	Guarded   bool
	NullGuard bool
}

// Apply rewrites m by inlining every decision, in one pass over its
// body. Decisions must refer to call instructions in m's current code.
// Locals and pool entries are handed out highest-PC-first. The rewritten
// method is verified before it is installed: if any decision is refused,
// or the result fails verification, m is left exactly as it was.
func Apply(prog *bytecode.Program, m *bytecode.Method, ds []Decision) error {
	if len(ds) == 0 {
		return nil
	}
	sorted := append([]Decision(nil), ds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].PC > sorted[j].PC })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].PC == sorted[i-1].PC {
			return fmt.Errorf("inline %s: duplicate decision at pc %d", m.Name, sorted[i].PC)
		}
	}
	nlocals := m.NLocals
	consts := m.Consts[:len(m.Consts):len(m.Consts)] // appending must not write into m's array
	splice := make(map[int][]bytecode.Instr, len(sorted))
	for _, d := range sorted {
		rep, err := replacement(m, d, nlocals, len(consts))
		if err != nil {
			return fmt.Errorf("inline %s at pc %d: %w", m.Name, d.PC, err)
		}
		splice[d.PC] = rep
		nlocals += d.Target.NLocals
		consts = append(consts, d.Target.Consts...)
	}
	if err := m.Install(prog, bytecode.Relayout(m.Code, nil, splice), nlocals, consts); err != nil {
		return fmt.Errorf("inline %s: rewritten method fails verification: %w", m.Name, err)
	}
	m.Trivial = false
	return nil
}

// replacement builds what takes the place of the call at d.PC: the
// callee's body with its locals moved to base, its pool indices to
// constBase, and its pcs counted from the replacement's start, as
// bytecode.Relayout expects of a spliced sequence.
//
// Layout (guarded case):
//
//	stores:   Store argN-1 … Store arg0      (args into fresh locals)
//	guard:    Load recv; VTEq target; JumpZ fallback
//	body:     callee code, returns rewritten to jumps to end
//	fallback: Load arg0 … Load argN-1; <original call instruction>
//	end:
//
// Both the inlined path and the fallback leave exactly one value on
// the stack, so stack depths agree at end and the verifier is happy.
func replacement(m *bytecode.Method, d Decision, base, constBase int) ([]bytecode.Instr, error) {
	if d.PC < 0 || d.PC >= len(m.Code) {
		return nil, fmt.Errorf("pc %d out of range [0,%d)", d.PC, len(m.Code))
	}
	ins := m.Code[d.PC]
	callee := d.Target
	switch ins.Op {
	case bytecode.OpCallStatic:
		if d.Guarded || d.NullGuard {
			return nil, fmt.Errorf("static call cannot be guard-inlined")
		}
	case bytecode.OpCallVirtual:
		if !d.Guarded && !d.NullGuard {
			return nil, fmt.Errorf("virtual call requires a guard")
		}
		if d.Guarded && d.Target.VSlot < 0 {
			return nil, fmt.Errorf("guarded decision targets non-virtual method %s", d.Target.Name)
		}
	default:
		return nil, fmt.Errorf("pc %d holds %v, not a call", d.PC, ins.Op)
	}
	if callee == m {
		return nil, fmt.Errorf("refusing to inline %s into itself", m.Name)
	}

	// The body: every OpReturnVoid grown into the value it returns and
	// a plain return, the callee's own branches following.
	grow := map[int][]bytecode.Instr{}
	for pc, ci := range callee.Code {
		if ci.Op == bytecode.OpReturnVoid {
			grow[pc] = []bytecode.Instr{{Op: bytecode.OpConst, A: 0}, {Op: bytecode.OpReturn}}
		}
	}
	body := bytecode.Relayout(callee.Code, nil, grow)

	// Prefix: stores, then optional guard.
	nargs := callee.NArgs
	guarded := d.Guarded || d.NullGuard
	rep := make([]bytecode.Instr, 0, 2*nargs+4+len(body))
	for i := nargs - 1; i >= 0; i-- {
		rep = append(rep, bytecode.Instr{Op: bytecode.OpStore, A: int32(base + i)})
	}
	if guarded {
		fallback := int32(nargs + 3 + len(body))
		rep = append(rep, bytecode.Instr{Op: bytecode.OpLoad, A: int32(base)})
		if d.NullGuard {
			// Monomorphic: only a nil receiver must take the fallback
			// (which re-executes the dispatch and traps).
			rep = append(rep,
				bytecode.Instr{Op: bytecode.OpIsNull},
				bytecode.Instr{Op: bytecode.OpJumpNZ, A: fallback})
		} else {
			rep = append(rep,
				bytecode.Instr{Op: bytecode.OpVTEq, A: bytecode.EncodeVTEq(d.Target.VSlot, d.Target.ID)},
				bytecode.Instr{Op: bytecode.OpJumpZ, A: fallback})
		}
	}
	prefixLen := len(rep)
	end := prefixLen + len(body)
	if guarded {
		end += nargs + 1
	}

	bytecode.Rebase(body, int32(base), int32(constBase), int32(prefixLen))
	for i := range body {
		if body[i].Op == bytecode.OpReturn {
			body[i] = bytecode.Instr{Op: bytecode.OpJump, A: int32(end)}
		}
	}
	rep = append(rep, body...)

	// Fallback: reload args and re-execute the original dispatch.
	if guarded {
		for i := 0; i < nargs; i++ {
			rep = append(rep, bytecode.Instr{Op: bytecode.OpLoad, A: int32(base + i)})
		}
		rep = append(rep, ins) // original call, same call-site ID
	}
	return rep, nil
}

// CallSite describes one call instruction found in a method body.
type CallSite struct {
	PC     int
	Op     bytecode.Opcode
	Site   int              // global call-site ID
	Static *bytecode.Method // target for static calls
	Slot   int              // vtable slot for virtual calls
	NArgs  int
}

// ScanCalls lists the call instructions in m.
func ScanCalls(prog *bytecode.Program, m *bytecode.Method) []CallSite {
	var out []CallSite
	for pc, ins := range m.Code {
		switch ins.Op {
		case bytecode.OpCallStatic:
			// The verifier checks a callee id only where control reaches:
			// a call that names no method stands in dead code, and is no site.
			if ins.A < 0 || int(ins.A) >= len(prog.Methods) {
				continue
			}
			out = append(out, CallSite{
				PC: pc, Op: ins.Op, Site: int(ins.B),
				Static: prog.Methods[ins.A],
			})
		case bytecode.OpCallVirtual:
			slot, nargs := bytecode.DecodeVirtual(ins.A)
			out = append(out, CallSite{
				PC: pc, Op: ins.Op, Site: int(ins.B), Slot: slot, NArgs: nargs,
			})
		}
	}
	return out
}

// Implementations returns the distinct methods that could answer a
// virtual call on slot, by scanning every class vtable (class
// hierarchy analysis). The result conservatively unions hierarchies
// that happen to share slot numbers.
func Implementations(prog *bytecode.Program, slot int) []*bytecode.Method {
	seen := map[*bytecode.Method]bool{}
	var out []*bytecode.Method
	for _, c := range prog.Classes {
		if slot < len(c.VTable) && c.VTable[slot] != nil && !seen[c.VTable[slot]] {
			seen[c.VTable[slot]] = true
			out = append(out, c.VTable[slot])
		}
	}
	return out
}
