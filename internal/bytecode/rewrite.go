package bytecode

// What every bytecode rewriter needs besides its own idea of what to
// change (DESIGN §5 "Rewriting bytecode"): where control flows, a fresh
// layout with every branch following its target, and a way to install
// the result only if it verifies. The inliner, cleanup and fusion hold
// no pc arithmetic of their own; mincover builds its blocks on ScanFlow.

// Flow is what one scan of a body says about its control flow.
type Flow struct {
	// Leader[pc]: pc starts a basic block — the entry, a branch's target,
	// or what follows a branch, return or halt. A window of instructions
	// can be rewritten as one only if none but its first is a leader.
	Leader []bool
	// Reach[pc]: control can reach pc from the entry.
	Reach []bool
}

// ScanFlow scans code once. It asks nothing of the body: the verifier
// checks a branch's target only where control reaches, so a branch in
// dead code may name any pc, and one that names none marks no leader
// and leads nowhere. A dead branch that does name one marks it — more
// leaders only make a rewriter more careful.
func ScanFlow(code []Instr) Flow {
	n := len(code)
	f := Flow{Leader: make([]bool, n), Reach: make([]bool, n)}
	for pc, ins := range code {
		branch := ins.Op.IsBranch()
		if t := int(ins.A); branch && t >= 0 && t < n {
			f.Leader[t] = true
		}
		if (branch || ins.Op.IsReturn() || ins.Op == OpHalt) && pc+1 < n {
			f.Leader[pc+1] = true
		}
	}
	if n > 0 {
		f.Leader[0] = true
	}
	for work := append(make([]int, 0, 32), 0); len(work) > 0; {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc < 0 || pc >= n || f.Reach[pc] {
			continue
		}
		f.Reach[pc] = true
		op := code[pc].Op
		if op.IsBranch() {
			work = append(work, int(code[pc].A))
		}
		if op != OpJump && op != OpHalt && !op.IsReturn() {
			work = append(work, pc+1)
		}
	}
	return f
}

// Rebase adds an offset to every operand of code that has the matching
// role, in place: what moving instructions into another method's locals
// and constant pool, or to another pc, does to them.
func Rebase(code []Instr, local, cnst, pc int32) {
	by := [...]int32{RoleNone: 0, RoleLocal: local, RoleConst: cnst, RolePC: pc}
	for i := range code {
		a, b := code[i].Op.Roles()
		code[i].A += by[a]
		code[i].B += by[b]
	}
}

// Relayout returns code laid out afresh, in a new array: code[pc] is
// dropped where del[pc] is set, gives way to the sequence splice[pc]
// where there is one, and is kept otherwise (del and splice may be nil).
// The map from old pcs to new is monotone — a dropped pc maps to the
// next instruction that survives, a spliced one to the first of its
// sequence, len(code) to the new length — and every kept branch is sent
// through it; a target outside [0, len(code)] can only stand in dead code
// and is left as it is. Inside a sequence, targets count from the
// sequence's own start, so its length names the instruction after it.
func Relayout(code []Instr, del []bool, splice map[int][]Instr) []Instr {
	n := len(code)
	newPC := make([]int32, n+1)
	for pc := range code {
		size := 1
		if del != nil && del[pc] {
			size = 0
		} else if seq, ok := splice[pc]; ok {
			size = len(seq)
		}
		newPC[pc+1] = newPC[pc] + int32(size)
	}
	out := make([]Instr, 0, newPC[n])
	for pc, ins := range code {
		if newPC[pc+1] == newPC[pc] {
			continue
		}
		if seq, ok := splice[pc]; ok {
			out = append(out, seq...)
			Rebase(out[newPC[pc]:], 0, 0, newPC[pc])
			continue
		}
		if ins.Op.IsBranch() && ins.A >= 0 && int(ins.A) <= n {
			ins.A = newPC[ins.A]
		}
		out = append(out, ins)
	}
	return out
}

// Install makes code the body of m, with nlocals locals and the constant
// pool consts, if that verifies; if not, m is left exactly as it was.
// This is the only assignment to a linked method's Code. A VM that has
// entered m tells a rewritten body from the one it has summed by the
// array (vm/span.go), so code must be a fresh one, as Relayout's result
// always is; handing m its own is a bug.
func (m *Method) Install(p *Program, code []Instr, nlocals int, consts []int64) error {
	if len(code) > 0 && len(m.Code) > 0 && &code[0] == &m.Code[0] {
		panic("bytecode: Install of " + m.Name + " with its own code array")
	}
	cand := *m
	cand.Code, cand.NLocals, cand.Consts, cand.Size = code, nlocals, consts, len(code)
	if err := Verify(p, &cand); err != nil {
		return err
	}
	m.Code, m.NLocals, m.Consts, m.Size, m.MaxStack = code, nlocals, consts, len(code), cand.MaxStack
	return nil
}
