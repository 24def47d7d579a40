package bytecode_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
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

// runAllWays executes p's entry plain and fused, unprofiled and under
// CBS, and fails on anything but a value or a trap. what names the
// program in failures.
func runAllWays(t testing.TB, p *bytecode.Program, what string) {
	t.Helper()
	type shape struct {
		name string
		prog *bytecode.Program
	}
	shapes := []shape{{"plain", p}}
	// Fusion re-verifies what it wrote and refuses rather than emit code
	// it cannot vouch for; a refusal is an answer, not a crash.
	fused := p.Clone()
	if _, err := opt.FuseProgram(fused); err == nil {
		shapes = append(shapes, shape{"fused", fused})
	}
	args := make([]int64, p.Entry.NArgs)
	for i := range args {
		args[i] = 3
	}
	for _, sh := range shapes {
		prog := sh.prog
		for _, sampled := range []bool{false, true} {
			func() {
				way := fmt.Sprintf("%s, %s, cbs=%v", what, sh.name, sampled)
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: the VM panicked on verified code: %v\n%s", way, r, bytecode.DisasmProgram(prog))
					}
				}()
				m := vm.New(prog)
				m.MaxSteps = soundSteps
				g := cycleGuard{}
				if sampled {
					g.cbs = profiler.NewCBS(profiler.Config{Stride: 2, SamplesPerTick: 8, Seed: 1})
				}
				m.SetProfiler(g)
				m.SetTimer(5_000)
				_, err := m.Run(args...)
				if err != nil && !strings.HasPrefix(err.Error(), "trap at ") {
					t.Fatalf("%s: error is not a trap: %v", way, err)
				}
				if m.Depth() != 0 {
					t.Fatalf("%s: depth %d after the run (err %v)", way, m.Depth(), err)
				}
			}()
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
