package bytecode_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/opt"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// The interpreter trusts what Verify establishes — operand depths within
// MaxStack, locals within NLocals, targets and indices in range — and
// sizes each frame from it. These tests hold it to that: whatever Verify
// accepts is run, and must end in a value or a trap, never a Go panic.

const (
	soundSteps  = 100_000    // MaxSteps of every run
	soundCycles = 20_000_000 // and a clock budget: one array may cost more than all the steps
)

// cycleGuard stops a run that outspends its clock budget — MaxSteps
// bounds instructions, and a single newarr can cost 2^25 cycles of
// zeroing — by lowering the step limit from a timer tick. It carries an
// optional CBS profiler along.
type cycleGuard struct{ cbs *profiler.CBS }

func (g cycleGuard) Name() string { return "cycle-guard" }

func (g cycleGuard) OnTimerTick(m *vm.VM) {
	if m.Cycles > soundCycles {
		m.MaxSteps = 1
	}
	if g.cbs != nil {
		g.cbs.OnTimerTick(m)
	}
}

func (g cycleGuard) OnYieldpoint(m *vm.VM, kind vm.YieldKind) {
	if g.cbs != nil {
		g.cbs.OnYieldpoint(m, kind)
	}
}

// rewriters are the three passes that rewrite a linked program in place.
var rewriters = []struct {
	name  string
	apply func(*bytecode.Program) error
}{
	{"fused", func(p *bytecode.Program) error { _, err := opt.FuseProgram(p); return err }},
	{"cleaned", func(p *bytecode.Program) error { _, err := opt.CleanupProgram(p); return err }},
	{"inlined", func(p *bytecode.Program) error {
		_, err := inline.Optimize(p, inline.Trivial{}, nil, inline.DefaultOptions())
		return err
	}},
}

// outcome is how one run ended: a value and an output, or a trap, and
// what the VM had counted by then.
type outcome struct {
	val    int64
	output []int64
	trap   string // "" for a value; otherwise the trap's reason, without its method@pc
	at     string // the trap's method@pc

	cycles, instrs, calls uint64
}

// comparable reports whether the run ended for a reason a rewrite must
// keep: not on a budget (steps, the cycle guard's step limit of 1, stack
// slots) that the rewritten program spends at another rate.
func (o outcome) comparable() bool {
	return !strings.HasPrefix(o.trap, "step limit") && !strings.HasPrefix(o.trap, "stack overflow")
}

func (o outcome) String() string {
	if o.trap != "" {
		return "trap: " + o.trap
	}
	return fmt.Sprintf("%d, %d outputs", o.val, len(o.output))
}

// runAllWays executes p's entry as it is and through each rewriter,
// unprofiled and under CBS. Whatever Verify accepts runs to a value or a
// trap, never a Go panic, and the same one with the same counts whether
// the VM takes it an instruction at a time (under a Trace function, from
// the method's own code) or a span at a time from its execution image; a
// rewriter may refuse a program (an error is an answer), but what it
// returns must verify again and end as the original ended. what names
// the program in failures.
func runAllWays(t testing.TB, p *bytecode.Program, what string) {
	t.Helper()
	args := make([]int64, p.Entry.NArgs)
	for i := range args {
		args[i] = 3
	}
	run := func(way string, prog *bytecode.Program, sampled, stepped bool) (o outcome) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: the VM panicked on verified code: %v\n%s", way, r, bytecode.DisasmProgram(prog))
			}
		}()
		m := vm.New(prog)
		m.MaxSteps = soundSteps
		if stepped {
			m.Trace = func(*bytecode.Method, int, bytecode.Instr) {}
		}
		g := cycleGuard{}
		if sampled {
			g.cbs = profiler.NewCBS(profiler.Config{Stride: 2, SamplesPerTick: 8, Seed: 1})
		}
		m.SetProfiler(g)
		m.SetTimer(5_000)
		v, err := m.Run(args...)
		if err != nil {
			msg := err.Error()
			if !strings.HasPrefix(msg, "trap at ") {
				t.Fatalf("%s: error is not a trap: %v", way, err)
			}
			o.at, o.trap, _ = strings.Cut(strings.TrimPrefix(msg, "trap at "), ": ")
		}
		if m.Depth() != 0 {
			t.Fatalf("%s: depth %d after the run (err %v)", way, m.Depth(), err)
		}
		o.val, o.output = v.I, m.Output
		o.cycles, o.instrs, o.calls = m.Cycles, m.Instrs, m.Calls
		return o
	}
	var want outcome
	for _, sampled := range []bool{false, true} {
		way := fmt.Sprintf("%s, plain, cbs=%v", what, sampled)
		want = run(way, p, sampled, false)
		if oracle := run(way+", stepped", p, sampled, true); !reflect.DeepEqual(want, oracle) {
			t.Fatalf("%s: from the execution image %+v, stepped %+v\n%s", way, want, oracle, bytecode.DisasmProgram(p))
		}
	}
	for _, rw := range rewriters {
		q := p.Clone()
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s, %s: the rewriter panicked on verified code: %v\n%s", what, rw.name, r, bytecode.DisasmProgram(p))
				}
			}()
			return rw.apply(q)
		}()
		if err != nil {
			continue
		}
		for _, m := range q.Methods {
			if err := bytecode.Verify(q, m); err != nil {
				t.Fatalf("%s, %s: the rewriter returned unverifiable code for %s: %v", what, rw.name, m.Name, err)
			}
		}
		for _, sampled := range []bool{false, true} {
			way := fmt.Sprintf("%s, %s, cbs=%v", what, rw.name, sampled)
			got := run(way, q, sampled, false)
			if !want.comparable() || !got.comparable() {
				continue
			}
			if got.trap != want.trap || got.val != want.val || !reflect.DeepEqual(got.output, want.output) {
				t.Fatalf("%s: ended in %v, the program as it was in %v\n%s\n-- rewritten:\n%s", way, got, want, bytecode.DisasmProgram(p), bytecode.DisasmProgram(q))
			}
		}
	}
}

// mutate makes one small structural change to a random instruction of a
// random method: the kind of damage a buggy transform or a corrupt file
// would do, most of which Verify must refuse.
func mutate(rng *rand.Rand, p *bytecode.Program) {
	m := p.Methods[rng.Intn(len(p.Methods))]
	pc := rng.Intn(len(m.Code))
	ins := &m.Code[pc]
	operand := func(v int32) int32 {
		switch rng.Intn(6) {
		case 0:
			return v + 1
		case 1:
			return v - 1
		case 2:
			return 0
		case 3:
			return int32(rng.Intn(len(m.Code)))
		case 4:
			return int32(rng.Intn(8))
		default:
			return []int32{-1, 1 << 20, 1 << 30, -1 << 31}[rng.Intn(4)]
		}
	}
	switch rng.Intn(7) {
	case 0:
		ins.Op = bytecode.Opcode(rng.Intn(bytecode.NumOpcodes))
	case 1:
		ins.A = operand(ins.A)
	case 2:
		ins.B = operand(ins.B)
	case 3:
		if pc+1 < len(m.Code) {
			m.Code[pc], m.Code[pc+1] = m.Code[pc+1], m.Code[pc]
		}
	case 4:
		*ins = bytecode.Instr{Op: bytecode.OpNop}
	case 5:
		if pc+1 < len(m.Code) {
			m.Code[pc+1] = *ins
		}
	case 6:
		*ins = m.Code[rng.Intn(len(m.Code))]
	}
}

// TestMutatedSuiteRunsOrTraps mutates every suite program a few hundred
// ways, keeps the mutants Verify accepts, and runs each of them.
func TestMutatedSuiteRunsOrTraps(t *testing.T) {
	mutants := 300
	if testing.Short() {
		mutants = 60
	}
	accepted := 0
	for _, b := range bench.All() {
		orig, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(b.Source))))
		for i := 0; i < mutants; i++ {
			p := orig.Clone()
			for k := 1 + rng.Intn(3); k > 0; k-- {
				mutate(rng, p)
			}
			ok := true
			for _, m := range p.Methods {
				if bytecode.Verify(p, m) != nil {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			accepted++
			runAllWays(t, p, fmt.Sprintf("%s mutant %d", b.Name, i))
		}
	}
	t.Logf("%d mutants passed verification and ran", accepted)
	if accepted < 10*len(bench.All()) {
		t.Errorf("only %d mutants were accepted: the mutator is too destructive to test anything", accepted)
	}
}
