package inline_test

import (
	"bytes"
	"sync"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/vm"
)

// jitOnlyProgram compiles a benchmark in the JIT-only configuration
// (trivial methods inlined, every other call observable).
func jitOnlyProgram(t *testing.T, name string) *bytecode.Program {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("benchmark %q not found", name)
	}
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return prog
}

// iterChecksums runs setup(size) plus iters iterations on a fresh VM
// and returns the per-iteration checksums. It returns errors rather
// than failing t because the soak calls it from worker goroutines.
func iterChecksums(prog *bytecode.Program, size int64, iters int) ([]int64, error) {
	sums, _, err := puller.RunRound(prog, size, iters)
	return sums, err
}

func encodeProgram(t *testing.T, p *bytecode.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bytecode.EncodeProgram(p, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTransformRaceCloneIsolation is the clone-isolation soak for the
// inlining transformer, mirroring the runner cache's test but under
// concurrency: several goroutines repeatedly Clone the same pristine
// program and run the profile-directed optimizer on their clones while
// other goroutines execute different clones. Run under -race (the
// Makefile's test-race target includes this package) it proves
// Optimize touches only the clone it was handed — no shared *Method or
// constant-pool state leaks between clones — and that executing a
// transformed clone reproduces the pristine program's output exactly.
func TestTransformRaceCloneIsolation(t *testing.T) {
	prog := jitOnlyProgram(t, "compress")
	b := bench.ByName("compress")
	size := b.Small

	// Exhaustive profile for the optimizer, and reference output.
	g := func() *profile.DCG {
		e := profiler.NewExhaustive()
		m := vm.New(prog)
		m.SetProfiler(e)
		iter, err := bench.Setup(m, size)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := m.Call(iter); err != nil {
				t.Fatal(err)
			}
		}
		return e.Graph
	}()
	const iters = 3
	want, err := iterChecksums(prog.Clone(), size, iters)
	if err != nil {
		t.Fatal(err)
	}
	pristine := encodeProgram(t, prog)

	const (
		transformers = 3
		executors    = 3
		rounds       = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < transformers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := prog.Clone()
				if _, err := inline.Optimize(c, inline.NewNewLinear(), g, inline.DefaultOptions()); err != nil {
					t.Errorf("optimize clone: %v", err)
					return
				}
				got, err := iterChecksums(c, size, iters)
				if err != nil {
					t.Errorf("run transformed clone: %v", err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("transformed clone diverged at iter %d: %d != %d", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	for w := 0; w < executors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := iterChecksums(prog.Clone(), size, iters)
				if err != nil {
					t.Errorf("run clone: %v", err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("unoptimized clone diverged at iter %d: %d != %d", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if !bytes.Equal(encodeProgram(t, prog), pristine) {
		t.Error("concurrent clone transforms mutated the shared pristine program")
	}
}
