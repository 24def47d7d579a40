package vm_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mincover"
	"gocbs/internal/opt"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// The VM is its own oracle for how it charges cycles: with a Trace
// function installed every instruction is paid for on its own, one
// charge, one step-limit test and one timer poll at a time, so a run
// with a no-op Trace (stepped) says what a run without one (charged,
// however the interpreter batches its bookkeeping) must have counted.

const (
	// spanDefaultTimer mirrors experiment.DefaultTimerPeriod without
	// importing the experiment package.
	spanDefaultTimer = 3_000_000
	// spanCutAfter is how far into a run the step-limit cuts are looked
	// for: a few methods entered, the small timers fired many times.
	spanCutAfter = 5_000
	// spanCeiling bounds a run under a timer of a few cycles, where a
	// sampler's own charges make every instruction deliver dozens of
	// ticks: there "no step limit" means this one, out of any span's reach
	// from the cuts.
	spanCeiling = 40_000
)

// endsSpan reports whether control may leave the straight line, or the
// interpreter leave its registers, after op: branches, calls, returns,
// halt, and the instructions that allocate or append.
func endsSpan(op bytecode.Opcode) bool {
	switch op {
	case bytecode.OpNew, bytecode.OpNewArr, bytecode.OpMakeClosure, bytecode.OpPrint, bytecode.OpHalt:
		return true
	}
	return op.IsBranch() || op.IsCall() || op.IsReturn()
}

// tickYield is the recorder of golden_test.go (a digest of the VM —
// counters, control word, top of stack, both stack walks with every
// frame's pc — at each hook, which is then handed on) listening for
// ticks and yieldpoints only, so that calls stay on whatever path the VM
// gives a call nobody watches.
type tickYield struct{ r *recorder }

func (p tickYield) Name() string { return "tick-yield" }

func (p tickYield) OnTimerTick(m *vm.VM) { p.r.OnTimerTick(m) }

func (p tickYield) OnYieldpoint(m *vm.VM, kind vm.YieldKind) { p.r.OnYieldpoint(m, kind) }

// newProbe puts a recorder over parts: all of it when one of them
// watches calls or entries, its tick and yieldpoint half otherwise, and
// either way beside it the counting half of a part that has one.
func newProbe(parts ...vm.Profiler) ([]vm.Profiler, *recorder) {
	r := newRecorder(parts...)
	on := r.profilers()
	for _, part := range parts {
		_, calls := part.(vm.CallListener)
		_, entries := part.(vm.EntryListener)
		if calls || entries {
			return on, r
		}
	}
	on[0] = tickYield{r}
	return on, r
}

// watched is what one observer puts on a VM: the profilers under the
// recorder, the graph they build (nil if none), and how to close the run.
type watched struct {
	parts   []vm.Profiler
	graph   *profile.DCG
	samples func() uint64
	finish  func() error
}

type spanObserver struct {
	name  string
	noEpi bool // J9: no epilogue yieldpoints
	plain bool // runs on unfused code only (the inliner does not rewrite superinstructions)
	make  func(prog *bytecode.Program) watched
}

func spanCBS(name string, fl profiler.Flavour) spanObserver {
	return spanObserver{name: name, noEpi: fl == profiler.FlavourJ9, make: func(*bytecode.Program) watched {
		c := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: fl, Seed: 7})
		return watched{parts: []vm.Profiler{c}, graph: c.Graph, samples: func() uint64 { return c.SamplesTaken }}
	}}
}

var spanObservers = []spanObserver{
	{name: "bare", make: func(*bytecode.Program) watched { return watched{} }},
	{name: "exhaustive", make: func(*bytecode.Program) watched {
		e := profiler.NewExhaustive()
		return watched{parts: []vm.Profiler{e}, graph: e.Graph}
	}},
	{name: "exhaustive-instrumented", make: func(*bytecode.Program) watched {
		e := profiler.NewInstrumented()
		return watched{parts: []vm.Profiler{e}, graph: e.Graph}
	}},
	spanCBS("cbs-rvm", profiler.FlavourRVM),
	spanCBS("cbs-j9", profiler.FlavourJ9),
	{name: "mincover", make: func(prog *bytecode.Program) watched {
		mc := mincover.New(prog)
		return watched{parts: []vm.Profiler{mc}, graph: mc.Graph, finish: mc.Finalize}
	}},
	// The online controller replaces the code of off-stack methods from
	// inside OnTimerTick, under a VM that has already entered them.
	{name: "adaptive", plain: true, make: func(prog *bytecode.Program) watched {
		c := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 7})
		ctl := adaptive.NewController(prog, inline.NewNewLinear(), c.Graph, inline.DefaultOptions(), 2)
		return watched{parts: []vm.Profiler{c, ctl}, graph: c.Graph, samples: func() uint64 { return c.SamplesTaken },
			finish: func() error { return ctl.Err }}
	}},
}

// outcome is everything a run leaves behind that the way cycles are
// charged could move.
type outcome struct {
	result                           int64
	trap                             string
	cycles, profiling, instrs, calls uint64
	executed, depth                  int
	events                           uint64 // hook invocations the recorder saw
	seen                             digest // the VM at each of them
	nOutput                          int
	output, dcg                      digest
	samples                          uint64
}

// spanRun executes prog's entry on size under o with the given timer
// period and step limit, with trace installed if not nil.
func spanRun(t *testing.T, prog *bytecode.Program, size int64, o spanObserver, timer, maxSteps uint64,
	trace func(*bytecode.Method, int, bytecode.Instr)) outcome {
	t.Helper()
	m := vm.New(prog)
	m.MaxSteps = maxSteps
	m.EpilogueYieldpoints = !o.noEpi
	m.Trace = trace
	w := o.make(prog)
	p, rec := newProbe(w.parts...)
	m.SetProfiler(p...)
	m.SetTimer(timer)
	v, err := m.Run(size)

	out := outcome{result: v.I, cycles: m.Cycles, profiling: m.ProfilingCycles, instrs: m.Instrs, calls: m.Calls,
		executed: m.MethodsExecuted(), depth: m.Depth(), events: rec.events, seen: rec.d,
		nOutput: len(m.Output), output: newDigest(), dcg: newDigest()}
	if err != nil {
		out.trap = err.Error()
	}
	for _, x := range m.Output {
		out.output.add(uint64(x))
	}
	if w.finish != nil && err == nil {
		if err := w.finish(); err != nil {
			t.Fatal(err)
		}
	}
	if w.samples != nil {
		out.samples = w.samples()
	}
	if w.graph != nil {
		if strings.HasPrefix(o.name, "exhaustive") && w.graph.Total() != float64(m.Calls) {
			t.Errorf("%s: the graph holds %v calls of %d", o.name, w.graph.Total(), m.Calls)
		}
		var buf bytes.Buffer
		if _, err := w.graph.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, c := range buf.Bytes() {
			out.dcg.add(uint64(c))
		}
	}
	return out
}

// cuts finds, from a trace, four step limits past spanCutAfter: one
// that traps the first instruction of a span, one an instruction in
// the middle of one, one the instruction that ends one, and one the
// second instruction of a window of the execution image.
type cuts struct {
	probe  *vm.VM // any VM for the program: its images are every VM's
	widths map[bytecode.Opcode]int

	n                           uint64
	midSpan                     bool // the previous instruction did not end its span
	first, middle, last, window uint64
}

func newCuts(prog *bytecode.Program) *cuts {
	return &cuts{probe: vm.New(prog), widths: windowWidths()}
}

func (c *cuts) trace(m *bytecode.Method, pc int, ins bytecode.Instr) {
	c.n++
	ends := endsSpan(ins.Op)
	if c.n > spanCutAfter {
		switch {
		case c.first == 0 && !c.midSpan:
			c.first = c.n - 1
		case c.middle == 0 && c.midSpan && !ends:
			c.middle = c.n - 1
		case c.last == 0 && c.midSpan && ends:
			c.last = c.n - 1
		}
		if c.window == 0 && c.midSpan && c.widths[c.probe.ImageOf(m)[pc-1].Op] > 1 {
			c.window = c.n - 1
		}
	}
	c.midSpan = !ends
}

// spanShapes compiles one benchmark as is, superinstruction-fused, and
// with trivial methods inlined.
func spanShapes(t *testing.T, bm *bench.Benchmark) map[string]*bytecode.Program {
	t.Helper()
	compile := func() *bytecode.Program {
		prog, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	fused, inlined := compile(), compile()
	if _, err := opt.FuseProgram(fused); err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(inlined, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return map[string]*bytecode.Program{"plain": compile(), "fused": fused, "inlined": inlined}
}

// spanSize is the argument each program's main gets: a twentieth of the
// small input, or 1 where main does a million instructions of set-up
// whatever the size.
func spanSize(bm *bench.Benchmark) int64 {
	switch bm.Name {
	case "compress", "mpegaudio", "mtrt", "jack":
		return 1
	}
	return max(1, bm.Small/20)
}

// TestSteppedEqualsCharged runs the 15 suite programs × {plain, fused,
// trivially inlined} × {bare, exhaustive, exhaustive-instrumented, CBS-RVM, CBS-J9, mincover,
// adaptive controller} × timer period {1, 3, 97, default} × step limit
// {none, three that trap the first, a middle and the last instruction of
// a span, and one that traps the second instruction of a window}, each
// stepped and charged — from the method's own code under a Trace
// function, and from its execution image without — and requires the same
// outcome of both: result or trap text, output, every counter, the VM
// state seen at every tick and yieldpoint, samples taken and the
// canonical bytes of the DCG. (A tick at every offset of every window:
// TestTickInsideEveryWindow.)
func TestSteppedEqualsCharged(t *testing.T) {
	benchmarks, timers := bench.All(), []uint64{1, 3, 97, spanDefaultTimer}
	if raceLite || testing.Short() {
		benchmarks, timers = benchmarks[:0], []uint64{3, spanDefaultTimer}
		for _, name := range []string{"javac", "closures", "phases"} {
			benchmarks = append(benchmarks, bench.ByName(name))
		}
	}
	for _, bm := range benchmarks {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			size := spanSize(bm)
			for shape, master := range spanShapes(t, bm) {
				for _, o := range spanObservers {
					if o.plain && shape == "fused" {
						continue
					}
					for _, timer := range timers {
						ceiling := uint64(0)
						if timer < 97 {
							ceiling = spanCeiling
						}
						c := newCuts(master)
						want := spanRun(t, master.Clone(), size, o, timer, ceiling, c.trace)
						if want.trap != "" && ceiling == 0 {
							t.Fatalf("%s/%s/timer=%d: stepped run: %s", shape, o.name, timer, want.trap)
						}
						if c.first == 0 || c.middle == 0 || c.last == 0 || c.window == 0 {
							t.Fatalf("%s/%s/timer=%d: no cuts in %d instructions: %+v", shape, o.name, timer, c.n, c)
						}
						noop := func(*bytecode.Method, int, bytecode.Instr) {}
						for i, limit := range []uint64{ceiling, c.first, c.middle, c.last, c.window} {
							if i > 0 {
								want = spanRun(t, master.Clone(), size, o, timer, limit, noop)
								if want.trap == "" {
									t.Errorf("%s/%s/timer=%d/limit=%d: stepped run finished", shape, o.name, timer, limit)
								}
							}
							got := spanRun(t, master.Clone(), size, o, timer, limit, nil)
							if got != want {
								t.Errorf("%s/%s/timer=%d/limit=%d:\n charged %+v\n stepped %+v", shape, o.name, timer, limit, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// spanPair runs build's program stepped and charged on fresh VMs,
// prepared the same way, and requires equal results, traps and counters.
// It returns the charged VM and its error.
func spanPair(t *testing.T, prog func() *bytecode.Program, prepare func(*vm.VM), args ...int64) (*vm.VM, error) {
	t.Helper()
	var ms [2]*vm.VM
	var vs [2]vm.Value
	var errs [2]error
	for i := range ms {
		m := vm.New(prog())
		if i == 1 {
			m.Trace = func(*bytecode.Method, int, bytecode.Instr) {}
		}
		if prepare != nil {
			prepare(m)
		}
		vs[i], errs[i] = m.Run(args...)
		ms[i] = m
	}
	c, s := ms[0], ms[1]
	if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) || vs[0].I != vs[1].I {
		t.Errorf("charged = %d, %v; stepped = %d, %v", vs[0].I, errs[0], vs[1].I, errs[1])
	}
	if c.Cycles != s.Cycles || c.Instrs != s.Instrs || c.Calls != s.Calls || c.ProfilingCycles != s.ProfilingCycles {
		t.Errorf("charged cycles=%d instrs=%d calls=%d profiling=%d; stepped cycles=%d instrs=%d calls=%d profiling=%d",
			c.Cycles, c.Instrs, c.Calls, c.ProfilingCycles, s.Cycles, s.Instrs, s.Calls, s.ProfilingCycles)
	}
	return c, errs[0]
}

// linkMain links a program whose entry is the main that body emits.
func linkMain(t *testing.T, nargs int, body func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder)) *bytecode.Program {
	t.Helper()
	pb := bytecode.NewProgramBuilder()
	mb := pb.NewFunc("main", nargs)
	body(pb, mb)
	pb.SetEntry(mb)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// A trap in the middle of a straight line stops the clock there: each
// of the eight instructions that can trap without ending a span is put
// second of five behind its operands, and what the VM has counted when
// the error comes back ends with the faulting instruction, not with the
// three behind it.
func TestTrapInMidSpanCountsToTheFault(t *testing.T) {
	cases := []struct {
		name string
		want string
		emit func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) // operands, then the trapping instruction
	}{
		{"div", "division by zero", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Const(1)
			mb.Const(0)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpDiv)
		}},
		{"rem", "remainder by zero", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Const(1)
			mb.Const(0)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpRem)
		}},
		{"getfield", "getfield on nil", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpGetField, 0)
		}},
		{"putfield", "putfield on nil", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Const(1)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpPutField, 0)
			mb.Const(0) // putfield pushes nothing: keep the depth the tail expects
		}},
		{"aload", "aload on nil", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Const(0)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpALoad)
		}},
		{"astore", "astore on nil", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Const(0)
			mb.Const(1)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpAStore)
			mb.Const(0)
		}},
		{"arrlen", "arrlen on nil", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Emit(bytecode.OpNull)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpArrLen)
		}},
		{"cast", "cannot cast array to Cell", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			cell := pb.NewClass("Cell", nil)
			mb.Const(2)
			mb.Emit(bytecode.OpNewArr)
			mb.Emit(bytecode.OpNop)
			mb.Emit(bytecode.OpCast, int32(cell.ID()))
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var faultPC int
			prog := func() *bytecode.Program {
				return linkMain(t, 0, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
					tc.emit(pb, mb)
					faultPC = mb.PC() - 1
					if tc.name == "putfield" || tc.name == "astore" {
						faultPC--
					}
					mb.Emit(bytecode.OpNop)
					mb.Emit(bytecode.OpDup)
					mb.Emit(bytecode.OpPop)
					mb.Emit(bytecode.OpReturn)
					mb.Const(0) // never reached: the line is not the last of its method
					mb.Emit(bytecode.OpReturn)
				})
			}
			// Without a timer, then with a tick due at each point of the line
			// in turn: ahead of the fault, on it, and behind it.
			for period := uint64(0); period <= 12; period++ {
				m, err := spanPair(t, prog, func(m *vm.VM) { m.SetTimer(period) })
				want := fmt.Sprintf("trap at $Globals.main@%d: %s", faultPC, tc.want)
				if err == nil || err.Error() != want {
					t.Fatalf("timer %d: err = %v, want %s", period, err, want)
				}
				if m.Instrs != uint64(faultPC)+1 {
					t.Errorf("timer %d: Instrs = %d at a trap at pc %d of a straight line", period, m.Instrs, faultPC)
				}
			}
		})
	}
}

// A backward branch into the middle of a straight line pays for what
// it runs, from the join to the line's end, not for the whole line.
func TestBranchIntoMidSpanChargesTheSuffix(t *testing.T) {
	prog := func() *bytecode.Program {
		return linkMain(t, 1, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			acc := int32(mb.AllocLocal())
			join := mb.NewLabel()
			mb.Const(7) // three instructions only the first trip runs
			mb.Emit(bytecode.OpStore, acc)
			mb.Emit(bytecode.OpNop)
			mb.Bind(join) // main(n): acc = 7; do { acc += n; n-- } while (n != 0)
			mb.Emit(bytecode.OpLoad, acc)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Emit(bytecode.OpAdd)
			mb.Emit(bytecode.OpStore, acc)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Const(1)
			mb.Emit(bytecode.OpSub)
			mb.Emit(bytecode.OpDup)
			mb.Emit(bytecode.OpStore, 0)
			mb.Branch(bytecode.OpJumpNZ, join)
			mb.Emit(bytecode.OpLoad, acc)
			mb.Emit(bytecode.OpReturn)
		})
	}
	const trips = 10
	m, err := spanPair(t, prog, nil, trips)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3 + 10*trips + 2); m.Instrs != want {
		t.Errorf("Instrs = %d, want %d: 3 ahead of the join, %d trips of 10, 2 to return", m.Instrs, want, trips)
	}
}

// Every instruction after which the interpreter leaves the straight
// line, with more of the line behind it: if the VM paid for what follows
// a print, an allocation, a call, a branch not taken or a return before
// getting there, it would pay for it twice.
func TestEveryTerminatorEndsItsSpan(t *testing.T) {
	prog := func() *bytecode.Program {
		return linkMain(t, 1, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			cell := pb.NewClass("Cell", nil)
			get := cell.NewMethod("get", false, 1) // both return from the middle of their code
			isNull := get.NewLabel()
			get.Emit(bytecode.OpLoad, 0)
			get.Branch(bytecode.OpJumpZ, isNull)
			get.Const(4)
			get.Emit(bytecode.OpReturn)
			get.Bind(isNull)
			get.Const(7)
			get.Emit(bytecode.OpReturn)
			void := pb.NewFunc("void", 0)
			never := void.NewLabel()
			void.Const(1)
			void.Branch(bytecode.OpJumpZ, never)
			void.Emit(bytecode.OpReturnVoid)
			void.Bind(never)
			void.Emit(bytecode.OpNop)
			void.Emit(bytecode.OpReturnVoid)
			lambda := pb.NewFunc("lambda", 1)
			lambda.Const(2)
			lambda.Emit(bytecode.OpReturn)
			pad := func() { // what must not be paid for ahead of time
				mb.Emit(bytecode.OpNop)
				mb.Const(1)
				mb.Emit(bytecode.OpPop)
			}
			l1, l2, l3 := mb.NewLabel(), mb.NewLabel(), mb.NewLabel()
			pad()
			mb.Const(5)
			mb.Emit(bytecode.OpPrint)
			pad()
			mb.Emit(bytecode.OpNew, int32(cell.ID()))
			pad()
			mb.CallVirtual(cell, "get")
			pad()
			mb.Emit(bytecode.OpNewArr)
			pad()
			mb.Emit(bytecode.OpPop)
			mb.MakeClosure(lambda, 0)
			pad()
			mb.CallClosure(1)
			pad()
			mb.Emit(bytecode.OpPop)
			mb.CallStatic(void)
			pad()
			mb.Emit(bytecode.OpLoad, 0)
			mb.Branch(bytecode.OpJumpZ, l1) // taken when main(0)
			pad()
			mb.Bind(l1)
			mb.Emit(bytecode.OpLoad, 0)
			mb.Branch(bytecode.OpJumpNZ, l2)
			pad()
			mb.Bind(l2)
			mb.Branch(bytecode.OpJump, l3)
			mb.Bind(l3)
			pad()
			mb.Emit(bytecode.OpLoad, 0)
			mb.Branch(bytecode.OpJumpZ, l3) // a backward branch, taken never or for ever
			pad()
			mb.Emit(bytecode.OpHalt) // with code behind it
			pad()
			mb.Emit(bytecode.OpHalt)
		})
	}
	for _, arg := range []int64{0, 1} {
		for _, fused := range []bool{false, true} {
			build := prog
			if fused {
				build = func() *bytecode.Program {
					p := prog()
					if _, err := opt.FuseProgram(p); err != nil {
						t.Fatal(err)
					}
					return p
				}
			}
			m, err := spanPair(t, build, func(m *vm.VM) { m.MaxSteps = 500 }, arg)
			if (err != nil) != (arg == 0) {
				t.Errorf("main(%d), fused=%v: err = %v", arg, fused, err)
			}
			if len(m.Output) != 1 || m.Output[0] != 5 {
				t.Errorf("main(%d), fused=%v: output %v", arg, fused, m.Output)
			}
		}
	}
}

// swapper is a tick listener that, from its nth tick on, tries swap
// until it reports success.
type swapper struct {
	at, ticks int
	done      bool
	swap      func() bool
}

func (s *swapper) Name() string { return "swapper" }

func (s *swapper) OnTimerTick(*vm.VM) {
	if s.ticks++; s.ticks >= s.at && !s.done {
		s.done = s.swap()
	}
}

// A method the VM has entered is recompiled while it is off the stack —
// by a tick listener in mid-run, as adaptive.Controller does — and
// entered again: the second entry counts the new code, whether that is
// longer than the old or exactly as long. Nobody watches calls, so the
// re-entry is a call the VM makes without leaving its registers.
func TestRecompiledMethodIsRecounted(t *testing.T) {
	// leaf(x) returns x+1 as compiled, x/2 recompiled; main(n) sums
	// leaf(i) for i in [0,n) with enough work per trip for the timer to
	// fire between calls.
	for _, sameLength := range []bool{false, true} {
		name := "longer"
		if sameLength {
			name = "same-length"
		}
		t.Run(name, func(t *testing.T) {
			prog := func() *bytecode.Program {
				return linkMain(t, 1, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
					lf := pb.NewFunc("leaf", 1)
					lf.Emit(bytecode.OpLoad, 0)
					lf.Const(1)
					lf.Emit(bytecode.OpAdd)
					lf.Emit(bytecode.OpReturn)
					acc, i := int32(mb.AllocLocal()), int32(mb.AllocLocal())
					head, done := mb.NewLabel(), mb.NewLabel()
					mb.Bind(head)
					mb.Emit(bytecode.OpLoad, i)
					mb.Emit(bytecode.OpLoad, 0)
					mb.Emit(bytecode.OpLt)
					mb.Branch(bytecode.OpJumpZ, done)
					mb.Emit(bytecode.OpLoad, i)
					mb.CallStatic(lf)
					mb.Emit(bytecode.OpLoad, acc)
					mb.Emit(bytecode.OpAdd)
					mb.Emit(bytecode.OpStore, acc)
					for k := 0; k < 6; k++ {
						mb.Emit(bytecode.OpNop)
					}
					mb.Emit(bytecode.OpLoad, i)
					mb.Const(1)
					mb.Emit(bytecode.OpAdd)
					mb.Emit(bytecode.OpStore, i)
					mb.Branch(bytecode.OpJump, head)
					mb.Bind(done)
					mb.Emit(bytecode.OpLoad, acc)
					mb.Emit(bytecode.OpReturn)
				})
			}
			swapped := 0
			prepare := func(m *vm.VM) {
				var leaf *bytecode.Method
				for _, meth := range m.Prog.Methods {
					if meth.Name == "$Globals.leaf" {
						leaf = meth
					}
				}
				s := &swapper{at: 5, swap: func() bool {
					if m.TopMethod() == leaf {
						return false // on the stack: the next tick will do
					}
					swapped++
					code := []bytecode.Instr{ // x/2: as many instructions, two cycles more
						{Op: bytecode.OpLoad, A: 0}, {Op: bytecode.OpConst, A: 2},
						{Op: bytecode.OpDiv}, {Op: bytecode.OpReturn},
					}
					if !sameLength {
						code = append([]bytecode.Instr{{Op: bytecode.OpNop}, {Op: bytecode.OpNop}}, code...)
					}
					leaf.Code = code
					return true
				}}
				m.SetProfiler(s)
				m.SetTimer(29)
			}
			const n = 40
			m, err := spanPair(t, prog, prepare, n)
			if err != nil {
				t.Fatal(err)
			}
			if swapped != 2 {
				t.Fatalf("the code was swapped %d times over two runs", swapped)
			}
			if m.Calls != n {
				t.Errorf("Calls = %d, want %d", m.Calls, n)
			}
		})
	}
}

// opt.Cleanup rewrites instructions where they stand (constants folded
// into nops, branches simplified) before it lays the survivors out
// afresh. A VM that has entered the method before the cleanup counts the
// cleaned-up code on the next run, as a VM made afterwards does.
func TestCleanedUpMethodIsRecounted(t *testing.T) {
	prog := linkMain(t, 1, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
		skip := mb.NewLabel()
		mb.Const(2) // folds to const 5
		mb.Const(3)
		mb.Emit(bytecode.OpAdd)
		mb.Const(0) // a branch never taken
		mb.Branch(bytecode.OpJumpNZ, skip)
		mb.Emit(bytecode.OpLoad, 0)
		mb.Emit(bytecode.OpAdd)
		mb.Bind(skip)
		mb.Emit(bytecode.OpReturn)
	})
	used := vm.New(prog)
	if v, err := used.Run(10); err != nil || v.I != 15 {
		t.Fatalf("before cleanup: %d, %v", v.I, err)
	}
	before := used.Instrs
	removed, err := opt.CleanupProgram(prog)
	if err != nil || removed == 0 {
		t.Fatalf("cleanup removed %d instructions, %v", removed, err)
	}
	fresh := vm.New(prog)
	fresh.Trace = func(*bytecode.Method, int, bytecode.Instr) {}
	if v, err := fresh.Run(10); err != nil || v.I != 15 {
		t.Fatalf("fresh VM after cleanup: %d, %v", v.I, err)
	}
	cycles := used.Cycles
	if v, err := used.Run(10); err != nil || v.I != 15 {
		t.Fatalf("used VM after cleanup: %d, %v", v.I, err)
	}
	if got, want := used.Instrs-before, fresh.Instrs; got != want || got >= before {
		t.Errorf("the VM that ran the method before its cleanup counts %d instructions for it afterwards, a fresh one %d (before: %d)", got, want, before)
	}
	if got, want := used.Cycles-cycles, fresh.Cycles; got != want {
		t.Errorf("the VM that ran the method before its cleanup charges %d cycles for it afterwards, a fresh one %d", got, want)
	}
}

// The verifier looks at an opcode only where control can reach, and the
// decoder takes any byte: a method may carry an opcode the VM has never
// heard of behind a return. Its span table is summed over all of the
// method, dead code too, and must not mind.
func TestUnknownOpcodeInDeadCodeIsNotCounted(t *testing.T) {
	prog := func() *bytecode.Program {
		p := linkMain(t, 0, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			mb.Const(7)
			mb.Emit(bytecode.OpReturn)
			mb.Emit(bytecode.Opcode(255))
			mb.Const(1)
			mb.Emit(bytecode.OpReturn)
		})
		var buf bytes.Buffer
		if err := bytecode.EncodeProgram(p, &buf); err != nil {
			t.Fatal(err)
		}
		q, err := bytecode.DecodeProgram(&buf)
		if err != nil {
			t.Fatalf("the decoder turned down an unknown opcode in dead code: %v", err)
		}
		return q
	}
	for period := uint64(0); period <= 3; period++ {
		m, err := spanPair(t, prog, func(m *vm.VM) { m.SetTimer(period) })
		if err != nil || m.Instrs != 2 {
			t.Errorf("timer %d: %d instructions, %v; want 2 and a result", period, m.Instrs, err)
		}
	}
}

// A span's charge is as wide as the clock: a cost model under which one
// straight line costs more than 2^32 cycles, or one instruction does,
// counts what stepping counts, with ticks inside the line and without.
func TestDearStraightLineCountsAsStepping(t *testing.T) {
	prog := func() *bytecode.Program {
		return linkMain(t, 0, func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
			for k := 0; k < 5; k++ {
				mb.Emit(bytecode.OpNop)
			}
			mb.Const(7)
			mb.Emit(bytecode.OpReturn)
		})
	}
	const dear = 1 << 31
	for _, period := range []uint64{0, dear - 1, dear, 3 * dear, 1 << 40} {
		ticks := 0
		m, err := spanPair(t, prog, func(m *vm.VM) {
			cost := *vm.DefaultCostModel()
			cost.Instr[bytecode.OpNop] = dear
			m.Cost = &cost
			m.SetProfiler(&swapper{swap: func() bool { ticks++; return false }})
			m.SetTimer(period)
		})
		if err != nil {
			t.Fatalf("timer %d: %v", period, err)
		}
		cost := vm.DefaultCostModel()
		want := 5*uint64(dear) + cost.Instr[bytecode.OpConst] + cost.Instr[bytecode.OpReturn] + cost.CallOverhead
		if m.Cycles != want {
			t.Errorf("timer %d: Cycles = %d, want %d", period, m.Cycles, want)
		}
		if period > 0 && uint64(ticks) != 2*(want/period) {
			t.Errorf("timer %d: %d ticks over two runs of %d cycles", period, ticks, want)
		}
	}
}

// What VM.Cost's comment says: the Instr row is summed into a method's
// span table when the method is first entered, so a model swapped in
// between two Runs prices the methods the first Run entered as the old
// one did and the others as it does itself. Nothing in the repository
// does that to a VM; this is here so that whoever changes when the
// model is read finds out that they did.
func TestCostModelIsReadAtFirstEntry(t *testing.T) {
	prog := linkMain(t, 1, func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) {
		g := pb.NewFunc("g", 0)
		g.Const(1)
		g.Emit(bytecode.OpReturn)
		skip := mb.NewLabel() // main(n): if n != 0 { g() }; return 0
		mb.Emit(bytecode.OpLoad, 0)
		mb.Branch(bytecode.OpJumpZ, skip)
		mb.CallStatic(g)
		mb.Emit(bytecode.OpPop)
		mb.Bind(skip)
		mb.Const(0)
		mb.Emit(bytecode.OpReturn)
	})
	old, doubled := vm.DefaultCostModel(), vm.DefaultCostModel()
	for op := range doubled.Instr {
		doubled.Instr[op] *= 2
	}
	m := vm.New(prog)
	if _, err := m.Run(0); err != nil { // enters main, not g
		t.Fatal(err)
	}
	before := m.Cycles
	m.Cost = doubled
	if _, err := m.Run(1); err != nil {
		t.Fatal(err)
	}
	mainOps := []bytecode.Opcode{bytecode.OpLoad, bytecode.OpJumpZ, bytecode.OpCallStatic, bytecode.OpPop, bytecode.OpConst, bytecode.OpReturn}
	want := 2 * old.CallOverhead // the harness's call of main, main's of g
	for _, op := range mainOps {
		want += old.Instr[op]
	}
	want += doubled.Instr[bytecode.OpConst] + doubled.Instr[bytecode.OpReturn]
	if got := m.Cycles - before; got != want {
		t.Errorf("main(1) after the swap cost %d cycles, want %d: main at the old prices, g at the new", got, want)
	}
}
