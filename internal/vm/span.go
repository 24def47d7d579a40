package vm

import "gocbs/internal/bytecode"

// A span is what run pays for at once: the instructions from a pc up to
// and including the next terminator, as their summed Cost.Instr and
// their number. A method's table holds one per pc — suffix sums along
// each straight line — so wherever control arrives (a branch into the
// middle of a line, a return to the instruction after a call, a restart
// after a sync point) the table entry at that pc is what lies ahead.
// Both are as wide as the counters they are added to: whatever a cost
// model charges an instruction, the sums are the ones stepping makes.
type span struct{ cyc, n uint64 }

// endsSpan reports whether op is a terminator: after it control may
// leave the straight line (branches, calls, returns, halt) or run leaves
// its registers (the instructions that allocate or append). These are
// the paper's yieldpoint sites plus the sync points, and the only
// instructions that charge anything beyond Cost.Instr or run a hook, so
// no observer can look at the counters inside a span.
func endsSpan(op bytecode.Opcode) bool {
	switch op {
	case bytecode.OpHalt, bytecode.OpNew, bytecode.OpNewArr, bytecode.OpMakeClosure, bytecode.OpPrint:
		return true
	}
	return op.IsBranch() || op.IsCall() || op.IsReturn()
}

// summary is one method's span table, its execution image (image.go),
// the code both were made from and, under a CallCounter, the row of every
// call instruction it counts, by pc.
type summary struct {
	tab   []span
	img   []bytecode.Instr
	first *bytecode.Instr // &code[0]
	rows  []*row
}

// A row holds the counters of one counted call point, by callee ID less
// off: one for a static call, and otherwise one per method, made when the
// point first runs, so a count is exact whatever the point's targets.
type row struct {
	caller, site, off int
	cost              uint64 // of one count, in profiling cycles
	n                 []uint64
}

// counted names a counter that has moved since the last fold.
type counted struct {
	r *row
	k int
}

// count is the slow half of counting: the first call of a (point, callee)
// pair since the last fold comes through enter to here, where the point's
// counters are made and the pair is listed for the next fold; run counts
// the calls after it in its registers, on a counter it finds nonzero.
// Either way the count is charged where it is made.
func (vm *VM) count(r *row, callee *bytecode.Method) {
	if r.n == nil {
		r.n = make([]uint64, len(vm.Prog.Methods))
	}
	k := callee.ID - r.off
	if r.n[k] == 0 {
		vm.pending = append(vm.pending, counted{r, k})
	}
	r.n[k]++
	vm.slowCounts++
	vm.ChargeProfiling(r.cost)
}

// fold hands the CallCounter every count made since the last fold. A row
// listed here outlives its summary, so replacing one folds nothing.
func (vm *VM) fold() {
	for _, c := range vm.pending {
		n := &c.r.n[c.k]
		vm.counter.Fold(c.r.caller, c.r.site, c.r.off+c.k, *n)
		*n = 0
	}
	vm.pending = vm.pending[:0]
}

// covers reports whether s was made from code: the same array at the
// same length. A linked method's Code is assigned in one place,
// bytecode's Method.Install, which every rewriter ends in and which takes
// a fresh array only; this sees that, and the summary keeps the old array
// reachable, so its address cannot come back.
func (s *summary) covers(code []bytecode.Instr) bool {
	return len(code) == len(s.tab) && len(code) > 0 && &code[0] == s.first
}

// table returns the VM's summary of m, made now — from m's code and the
// VM's cost model as they are — if the VM holds none that covers it.
// An opcode the VM does not know is charged nothing: the verifier lets
// one stand where control cannot reach, and only there.
func (vm *VM) table(m *bytecode.Method) *summary {
	s := &vm.spans[m.ID]
	if s.covers(m.Code) {
		return s
	}
	if s.tab == nil {
		vm.nExec++
	}
	*s = summary{tab: make([]span, len(m.Code)), img: image(m.Code)}
	if vm.counter != nil {
		s.rows = make([]*row, len(m.Code))
	}
	var cyc, n uint64
	for pc := len(m.Code) - 1; pc >= 0; pc-- {
		op := m.Code[pc].Op
		if endsSpan(op) {
			cyc, n = 0, 0
		}
		if ins := m.Code[pc]; s.rows != nil && op.IsCall() {
			if cost, ok := vm.counter.Counts(m, int(ins.B), vm.Cost); ok {
				s.rows[pc] = &row{caller: m.ID, site: int(ins.B), cost: cost}
				if op == bytecode.OpCallStatic {
					s.rows[pc].off, s.rows[pc].n = int(ins.A), make([]uint64, 1)
				}
			}
		}
		if n++; op.Valid() {
			cyc += vm.Cost.Instr[op]
		}
		s.tab[pc], s.first = span{cyc, n}, &m.Code[pc] // first ends at pc 0
	}
	return s
}
