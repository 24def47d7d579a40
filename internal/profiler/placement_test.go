package profiler

import (
	"math"
	"slices"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/vm"
)

// tickWatch records the clock at every timer tick. Installed after a CBS
// it sees the ticks where that CBS's seed placed them.
type tickWatch struct{ at []uint64 }

func (*tickWatch) Name() string { return "tick-watch" }

func (w *tickWatch) OnTimerTick(m *vm.VM) { w.at = append(w.at, m.Cycles) }

// countdown links main(n) { while (n != 0) n = n - 1; return 0 }: no
// call, so a CBS takes one yieldpoint in the whole run and the clock
// advances by one cheap instruction at a time. A tick is delivered at the
// first instruction boundary past its deadline: within tickSlack cycles
// of where it was placed.
func countdown(t testing.TB) *bytecode.Program {
	t.Helper()
	pb := bytecode.NewProgramBuilder()
	main := pb.NewFunc("main", 1)
	loop, done := main.NewLabel(), main.NewLabel()
	main.Bind(loop)
	main.Emit(bytecode.OpLoad, 0)
	main.Branch(bytecode.OpJumpZ, done)
	main.Emit(bytecode.OpLoad, 0)
	main.Const(1)
	main.Emit(bytecode.OpSub)
	main.Emit(bytecode.OpStore, 0)
	main.Branch(bytecode.OpJump, loop)
	main.Bind(done)
	main.Const(0)
	main.Emit(bytecode.OpReturn)
	pb.SetEntry(main)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const tickSlack = 32 // one instruction and one taken yieldpoint (12), generously

// ticksOf runs countdown under CBS (3, 16) at seed with a timer of period
// cycles and returns the clock at every tick.
func ticksOf(t testing.TB, prog *bytecode.Program, seed int64, period uint64, timerFirst bool) []uint64 {
	t.Helper()
	c := NewCBS(Config{Stride: 3, SamplesPerTick: 16, Flavour: FlavourRVM, Seed: seed})
	w := &tickWatch{}
	m := vm.New(prog)
	if timerFirst {
		m.SetTimer(period)
		m.SetProfiler(c, w)
	} else {
		m.SetProfiler(c, w)
		m.SetTimer(period)
	}
	if _, err := m.Run(3000); err != nil {
		t.Fatal(err)
	}
	if uint64(len(w.at)) != c.Ticks || c.Ticks < 12 {
		t.Fatalf("seed %d: %d ticks seen, the sampler counted %d", seed, len(w.at), c.Ticks)
	}
	return w.at
}

// TestTickPlacement: a CBS places tick k somewhere in [(k−½)·P, (k+½)·P),
// uniformly, from its seed — one tick a period, so tick counts hold — and
// consecutive seeds (a fleet's are seed+k) place unrelated ticks; the
// schedule is the same whichever of SetProfiler and SetTimer comes first;
// a VM with no placer still ticks at k·P; and the initial-skip sequence
// of a seed is what it was before ticks were placed.
func TestTickPlacement(t *testing.T) {
	prog := countdown(t)
	const period, seeds, perSeed = 1000, 1000, 12
	var bins [10]int
	first := make([]float64, seeds+1) // tick 1's offset in its period, by seed
	for seed := int64(0); seed <= seeds; seed++ {
		at := ticksOf(t, prog, seed, period, false)
		for i, c := range at[:perSeed] {
			k := uint64(i + 1)
			lo := k*period - period/2
			if c < lo || c >= lo+period+tickSlack {
				t.Fatalf("seed %d: tick %d at cycle %d, outside [%d, %d)", seed, k, c, lo, lo+period)
			}
			off := min(c-lo, period-1)
			if i == 0 {
				first[seed] = float64(off)
			}
			if seed < seeds {
				bins[off*10/period]++
			}
		}
		if seed%97 == 0 && !slices.Equal(at, ticksOf(t, prog, seed, period, true)) {
			t.Errorf("seed %d: SetTimer before SetProfiler gives another schedule", seed)
		}
	}
	// Chi-square against uniform over 10 bins, 9 degrees of freedom: 27.9
	// is the 0.1 % point. Ticks at k·P put every offset in one bin.
	var chi2 float64
	expect := float64(seeds*perSeed) / 10
	for _, n := range bins {
		chi2 += (float64(n) - expect) * (float64(n) - expect) / expect
	}
	if chi2 > 27.9 {
		t.Errorf("offsets are not uniform over the period: chi-square %.1f, bins %v", chi2, bins)
	}
	// Pearson correlation of seed s with seed s+1 over 1 000 pairs: under
	// independence it is within ±0.1 (3.2 sigma).
	var sx, sy, sxx, syy, sxy float64
	for s := 0; s < seeds; s++ {
		x, y := first[s], first[s+1]
		sx, sy, sxx, syy, sxy = sx+x, sy+y, sxx+x*x, syy+y*y, sxy+x*y
	}
	n := float64(seeds)
	r := (sxy - sx*sy/n) / math.Sqrt((sxx-sx*sx/n)*(syy-sy*sy/n))
	if !(math.Abs(r) < 0.1) {
		t.Errorf("tick offsets of consecutive seeds correlate: r = %.3f", r)
	}

	// No placer among the profilers: ticks at k·P, as ever.
	w := &tickWatch{}
	m := vm.New(prog)
	m.SetProfiler(w)
	m.SetTimer(period)
	if _, err := m.Run(3000); err != nil {
		t.Fatal(err)
	}
	for i, c := range w.at {
		if due := uint64(i+1) * period; c < due || c >= due+tickSlack {
			t.Errorf("unplaced tick %d at cycle %d, due at %d", i+1, c, due)
		}
	}

	// The skip stream is not the tick stream: these are the first twelve
	// initial skips of seeds 1, 2 and 42 at stride 3 as drawn before ticks
	// were placed.
	for seed, want := range map[int64][]int{
		1:  skipsBefore1,
		2:  skipsBefore2,
		42: skipsBefore42,
	} {
		c := NewCBS(Config{Stride: 3, SamplesPerTick: 16, Seed: seed})
		got := make([]int, len(want))
		for i := range got {
			got[i] = c.initialSkip()
		}
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: initial skips %v, were %v", seed, got, want)
		}
	}
}

var (
	skipsBefore1  = []int{2, 3, 2, 1, 3, 2, 1, 2, 3, 3, 1, 2}
	skipsBefore2  = []int{3, 1, 2, 3, 1, 3, 3, 3, 2, 3, 2, 2}
	skipsBefore42 = []int{1, 3, 3, 2, 3, 3, 1, 3, 2, 1, 3, 1}
)
