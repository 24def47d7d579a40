package vm_test

import (
	"fmt"
	"sort"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/vm"
)

// windowNames and windowWidths index the catalogue by superinstruction.
func windowNames() map[bytecode.Opcode]string {
	names := map[bytecode.Opcode]string{}
	for _, w := range vm.Windows() {
		names[w.Op] = w.Name
	}
	return names
}

func windowWidths() map[bytecode.Opcode]int {
	widths := map[bytecode.Opcode]int{}
	for _, w := range vm.Windows() {
		widths[w.Op] = w.Width
	}
	return widths
}

// replay counts what an untimed, unwatched VM dispatches for a traced
// instruction stream: each traced (method, pc) that no window has
// swallowed is one dispatch, of whatever the method's execution image
// holds there, and a window's head swallows the width-1 instructions
// behind it.
type replay struct {
	t      *testing.T
	m      *vm.VM
	widths [256]int

	instrs, dispatches uint64
	heads              [256]uint64      // dispatches by what was dispatched
	pairs              [256][256]uint64 // two dispatches in a row on one straight line

	in      *bytecode.Method // the last dispatch: where, what, and where it ends
	op      bytecode.Opcode
	next    int
	swallow int  // instructions of its window still to come
	open    bool // its last instruction was no terminator
}

func newReplay(t *testing.T, m *vm.VM) *replay {
	r := &replay{t: t, m: m}
	for op := range r.widths {
		r.widths[op] = 1
	}
	for op, w := range windowWidths() {
		r.widths[op] = w
	}
	return r
}

func (r *replay) trace(m *bytecode.Method, pc int, _ bytecode.Instr) {
	r.instrs++
	if r.swallow > 0 {
		if r.swallow--; m != r.in || pc != r.next-1-r.swallow {
			r.t.Fatalf("%s@%d traced inside the window that ends at %s@%d", m.Name, pc, r.in.Name, r.next)
		}
		return
	}
	op := r.m.ImageOf(m)[pc].Op
	r.dispatches++
	r.heads[op]++
	if r.open && m == r.in && pc == r.next {
		r.pairs[r.op][op]++
	}
	w := r.widths[op]
	r.in, r.op, r.next, r.swallow = m, op, pc+w, w-1
	r.open = !endsSpan(m.Code[pc+w-1].Op)
}

// TestImageDispatches is the gate on the window catalogue, and the
// successor of a wall-clock test that public fusion be 10 % faster than
// none: the 15 suite programs are traced once on their small inputs and
// the stream replayed against each method's execution image. Over the
// suite the VM must dispatch at most 72 % as often as it counts
// instructions, and every row of the catalogue must be at least 0.5 %
// of the dispatches, or go. With -v it prints the rows' shares and the
// histogram of adjacent dispatches that are left, from which the next
// row would be read.
func TestImageDispatches(t *testing.T) {
	if raceLite || testing.Short() {
		t.Skip("traces 168 M instructions")
	}
	names := windowNames()
	name := func(op int) string {
		if n, ok := names[bytecode.Opcode(op)]; ok {
			return "[" + n + "]"
		}
		return bytecode.Opcode(op).String()
	}
	var (
		instrs, dispatches uint64
		heads              [256]uint64
		pairs              = map[string]uint64{}
		pairShare          = map[string]float64{} // summed over the programs
	)
	for _, bm := range bench.All() {
		prog, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(prog)
		r := newReplay(t, m)
		m.Trace = r.trace
		if _, err := m.Run(bm.Small); err != nil {
			t.Fatal(err)
		}
		// The count is of what a VM without the Trace function does.
		plain := vm.New(prog)
		if _, err := plain.Run(bm.Small); err != nil || plain.Instrs != r.instrs {
			t.Fatalf("%s: %d instructions untraced (err %v), %d traced", bm.Name, plain.Instrs, err, r.instrs)
		}
		t.Logf("%-10s %11d instructions %11d dispatches %5.1f %%", bm.Name, r.instrs, r.dispatches, 100*float64(r.dispatches)/float64(r.instrs))
		instrs, dispatches = instrs+r.instrs, dispatches+r.dispatches
		for a := range r.heads {
			heads[a] += r.heads[a]
			for b, n := range r.pairs[a] {
				if n > 0 {
					k := name(a) + "·" + name(b)
					pairs[k] += n
					pairShare[k] += float64(n) / float64(r.dispatches)
				}
			}
		}
	}
	share := 100 * float64(dispatches) / float64(instrs)
	t.Logf("suite      %11d instructions %11d dispatches %5.1f %%", instrs, dispatches, share)
	if share > 72 {
		t.Errorf("the suite dispatches %.1f %% as often as it counts instructions, more than 72 %%", share)
	}
	for _, w := range vm.Windows() {
		s := 100 * float64(heads[w.Op]) / float64(dispatches)
		t.Logf("row %-16s %11d dispatches %5.2f %%, %d instructions each", w.Name, heads[w.Op], s, w.Width)
		if s < 0.5 {
			t.Errorf("row %s is %.2f %% of the suite's dispatches: under 0.5 %% it goes", w.Name, s)
		}
	}
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return pairShare[keys[i]] > pairShare[keys[j]] })
	t.Log("adjacent dispatches left on one straight line, as a share of dispatches: mean over the programs, and of the suite")
	for _, k := range keys[:min(len(keys), 30)] {
		t.Logf("  %-32s %5.2f %% %5.2f %%", k, 100*pairShare[k]/float64(len(bench.All())), 100*float64(pairs[k])/float64(dispatches))
	}
}

// imageOps returns the opcodes a fresh VM's execution image holds for
// prog's entry method, and the catalogue's names for the windows' own.
func imageOps(prog *bytecode.Program) ([]bytecode.Opcode, map[bytecode.Opcode]string) {
	names := windowNames()
	var ops []bytecode.Opcode
	for _, ins := range vm.New(prog).ImageOf(prog.Entry) {
		ops = append(ops, ins.Op)
	}
	return ops, names
}

// wantWindow requires the image of prog's entry to hold the window name
// at pc: a test of what a window does must not pass because the window
// is not there.
func wantWindow(t *testing.T, prog *bytecode.Program, pc int, name string) {
	t.Helper()
	ops, names := imageOps(prog)
	if got := names[ops[pc]]; got != name {
		t.Fatalf("the image holds %v (%q) at pc %d, not the window %s\n%s", ops[pc], got, pc, name, bytecode.DisasmProgram(prog))
	}
}

// The kernel BenchmarkDispatch/windows times, and the tests below put
// ticks and step limits into, runs every row of the catalogue.
func TestWindowsKernelHoldsEveryRow(t *testing.T) {
	ops, names := imageOps(dispatchKernel(t, windowsKernel))
	held := map[string]int{}
	for _, op := range ops {
		held[names[op]]++
	}
	for _, w := range vm.Windows() {
		if held[w.Name] < 8 {
			t.Errorf("the kernel's image holds the window %s %d times, not once per copy of the body", w.Name, held[w.Name])
		}
	}
}

// runKernel is spanRun with nobody but the recorder of ticks watching:
// how the run ended, every counter, and the VM at every tick.
func runKernel(t *testing.T, prog *bytecode.Program, n int64, period, maxSteps uint64, stepped bool) outcome {
	var trace func(*bytecode.Method, int, bytecode.Instr)
	if stepped {
		trace = func(*bytecode.Method, int, bytecode.Instr) {}
	}
	return spanRun(t, prog, n, spanObservers[0], period, maxSteps, trace)
}

// A tick at every offset of every window: the kernel's straight lines
// are a few dozen cycles long and nothing but windows, so timer periods
// from 1 up put a tick before, inside and behind each of them within a
// few trips. The VM a tick listener sees — the counters, the frame's pc,
// the operand stack — is the one the stepped VM shows it.
func TestTickInsideEveryWindow(t *testing.T) {
	prog := dispatchKernel(t, windowsKernel)
	for period := uint64(1); period <= 101; period++ {
		want, got := runKernel(t, prog, 3, period, 0, true), runKernel(t, prog, 3, period, 0, false)
		if got != want {
			t.Errorf("timer %d:\n image   %+v\n stepped %+v", period, got, want)
		}
		if want.trap != "" || want.events == 0 {
			t.Fatalf("timer %d: the stepped run saw %d ticks and ended in %q", period, want.events, want.trap)
		}
	}
}

// A step limit on every instruction of one trip through the kernel, so
// on every part of every window: the trap names the pc of the
// instruction that was not to run, and the counters stop there.
func TestStepLimitInsideEveryWindow(t *testing.T) {
	prog := dispatchKernel(t, windowsKernel)
	whole := runKernel(t, prog, 1, 0, 0, true)
	for limit := uint64(1); limit < whole.instrs; limit++ {
		want, got := runKernel(t, prog, 1, 0, limit, true), runKernel(t, prog, 1, 0, limit, false)
		if got != want || want.trap == "" || want.instrs != limit+1 {
			t.Errorf("limit %d:\n image   %+v\n stepped %+v", limit, got, want)
		}
	}
}

// A trap raised by a part of a window — the first, the second or the
// third — is the trap the instruction raises on its own: the error and
// the pc it names, the counters with what lay behind the fault given
// back, the frames and the operand stack as the fault left them. Each
// case is a straight line with the window at pc at, the trapping part at
// pc fault and three instructions behind it, under no timer and under
// periods that put a tick at each point of the line.
func TestTrapInsideWindow(t *testing.T) {
	const k = 1 // main's argument, the index 7, is local 0
	cases := []struct {
		name, window, want string
		at, fault          int
		emit               func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder)
	}{
		{"load·getfield on nil", "load·getfield", "getfield on nil", 2, 3, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Emit(bytecode.OpStore, k)
			mb.Emit(bytecode.OpLoad, k)
			mb.Emit(bytecode.OpGetField, 0)
		}},
		{"load·getfield out of range", "load·getfield", "getfield outside the 1 fields of Cell", 2, 3, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			cell := pb.NewClass("Cell", nil)
			cell.AddField("x", false)
			mb.Emit(bytecode.OpNew, int32(cell.ID()))
			mb.Emit(bytecode.OpStore, k)
			mb.Emit(bytecode.OpLoad, k)
			mb.Emit(bytecode.OpGetField, 5)
		}},
		{"getfield·load on nil", "getfield·load", "getfield on nil", 1, 1, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Emit(bytecode.OpGetField, 0)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpPop)
		}},
		{"getfield·load out of range", "getfield·load", "getfield outside the 0 fields of Cell", 1, 1, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			cell := pb.NewClass("Cell", nil)
			mb.Emit(bytecode.OpNew, int32(cell.ID()))
			mb.Emit(bytecode.OpGetField, 0)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpPop)
		}},
		{"load·aload on nil", "load·aload", "aload on nil", 1, 2, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpALoad)
		}},
		{"load·aload out of bounds", "load·aload", "array index 7 out of range [0,2)", 2, 3, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Const(2)
			mb.Emit(bytecode.OpNewArr)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpALoad)
		}},
		{"getstatic·load·aload on nil", "getstatic·load·aload", "aload on nil", 0, 2, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpGetStatic, int32(pb.AddStaticInit("g", 0)))
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpALoad)
		}},
		{"getstatic·load·aload out of bounds", "getstatic·load·aload", "array index 7 out of range [0,2)", 3, 5, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			g := int32(pb.AddStaticInit("g", 0))
			mb.Const(2)
			mb.Emit(bytecode.OpNewArr)
			mb.Emit(bytecode.OpPutStatic, g)
			mb.Emit(bytecode.OpGetStatic, g)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpALoad)
		}},
		{"arrlen·cmp·jump on nil", "arrlen·cmp·jump", "arrlen on nil", 2, 2, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			l := mb.NewLabel()
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpNull)
			mb.Emit(bytecode.OpArrLen)
			mb.Emit(bytecode.OpLt)
			mb.Branch(bytecode.OpJumpZ, l)
			mb.Bind(l)
			mb.Const(0)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := linkMain(t, 1, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
				mb.AllocLocal()
				tc.emit(pb, mb)
				mb.Emit(bytecode.OpNop)
				mb.Emit(bytecode.OpDup)
				mb.Emit(bytecode.OpPop)
				mb.Emit(bytecode.OpReturn)
			})
			wantWindow(t, prog, tc.at, tc.window)
			wantErr := fmt.Sprintf("trap at $Globals.main@%d: %s", tc.fault, tc.want)
			for period := uint64(0); period <= 16; period++ {
				type wreck struct {
					err                           string
					cycles, instrs, calls         uint64
					frames, slots, ticks, tickSum int
				}
				var ws [2]wreck
				for i := range ws {
					m, w := vm.New(prog), &ws[i]
					if i == 1 {
						m.Trace = func(*bytecode.Method, int, bytecode.Instr) {}
					}
					m.SetProfiler(&swapper{swap: func() bool { w.ticks++; w.tickSum += int(m.Instrs); return false }})
					m.SetTimer(period)
					frames, slots, err := m.RunToTrap(7)
					*w = wreck{fmt.Sprint(err), m.Cycles, m.Instrs, m.Calls, frames, slots, w.ticks, w.tickSum}
				}
				if ws[0] != ws[1] {
					t.Errorf("timer %d:\n image   %+v\n stepped %+v", period, ws[0], ws[1])
				}
				if w := ws[1]; w.err != wantErr || w.instrs != uint64(tc.fault)+1 || w.frames != 1 {
					t.Errorf("timer %d: the stepped run ended in %+v, want %q after %d instructions", period, w, wantErr, tc.fault+1)
				}
			}
		})
	}
}

// A branch into the middle of a window runs what the code has there: the
// image keeps every pc, and what it holds at one does what the code does
// from it. main(n) stores through the window store·load when n != 0 and
// jumps to the load in its middle when n == 0.
func TestBranchIntoWindow(t *testing.T) {
	prog := func() *bytecode.Program {
		return linkMain(t, 1, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			tmp := int32(mb.AllocLocal())
			mid := mb.NewLabel()
			mb.Const(7)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Branch(bytecode.OpJumpZ, mid)
			mb.Const(30)
			mb.Emit(bytecode.OpStore, tmp) // pc 4: store·load
			mb.Bind(mid)
			mb.Emit(bytecode.OpLoad, 0) // pc 5, the branch's target
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpAdd)
			mb.Emit(bytecode.OpLoad, tmp)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpAdd)
			mb.Emit(bytecode.OpReturn)
		})
	}
	wantWindow(t, prog(), 4, "store·load")
	for n, want := range map[int64]int64{0: 7, 1: 38, 5: 42} {
		for period := uint64(0); period <= 8; period++ {
			m, err := spanPair(t, prog, func(m *vm.VM) { m.SetTimer(period) }, n)
			v, _ := m.Run(n)
			if err != nil || v.I != want {
				t.Errorf("main(%d), timer %d: %d, %v; want %d", n, period, v.I, err, want)
			}
		}
	}
}

// The stack limit is the limit on every path. rec(x) calls itself for
// ever, one slot a frame; the call nobody watches, which run makes in its
// registers whenever the frame fits the stack's capacity, overflows where
// the call through enter does, and not where the Go runtime's rounding of
// that capacity would have let it.
func TestStackLimitHoldsInRegisters(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	rec := pb.NewFunc("rec", 1)
	rec.Emit(bytecode.OpLoad, 0)
	rec.CallStatic(rec)
	rec.Emit(bytecode.OpReturn)
	mb := pb.NewFunc("main", 1)
	mb.Emit(bytecode.OpLoad, 0)
	mb.CallStatic(rec)
	mb.Emit(bytecode.OpReturn)
	pb.SetEntry(mb)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	const limit = 1000 // not a capacity append or slices.Grow would stop at
	for _, way := range []string{"registers", "stepped", "watched"} {
		m := vm.New(prog)
		m.SetMaxStack(limit)
		switch way {
		case "stepped":
			m.Trace = func(*bytecode.Method, int, bytecode.Instr) {}
		case "watched":
			m.SetProfiler(&callListener{})
		}
		_, err := m.Run(1)
		if err == nil || err.Error() != "trap at $Globals.rec@1: stack overflow calling $Globals.rec" {
			t.Fatalf("%s: %v", way, err)
		}
		// main's frame takes slots 0 and 1, the kth rec's k and k+1: the
		// 999th call is counted and finds no slot 1000.
		if m.Calls != limit-1 || m.Instrs != 2*(limit-1) {
			t.Errorf("%s: %d calls and %d instructions at the overflow of %d slots, want %d and %d", way, m.Calls, m.Instrs, limit, limit-1, 2*(limit-1))
		}
	}
}
