// Package bench provides the benchmark suite of §6.1: thirteen MJ
// programs whose dynamic call-graph character mirrors the paper's
// workloads (SPECjvm98 plus ipsixql, xerces, daikon, kawa, jbb, and
// soot), each with a small and a large input size.
//
// Every program follows the same protocol:
//
//	void setup(int size)  — build sized data structures (run once)
//	int iter()            — one unit of steady-state work (checksummed)
//	int main(int size)    — setup(size) followed by a fixed iteration
//	                        count; the accuracy experiments run this
//
// The programs use only deterministic pseudo-randomness (an LCG in MJ
// itself), so every run of a given program and size executes the
// identical call stream. Setup is how a driver begins one under that
// protocol.
package bench

import (
	"errors"
	"fmt"
	"sort"

	"gocbs/internal/bytecode"
	"gocbs/internal/mj"
	"gocbs/internal/vm"
)

// Benchmark is one suite entry.
type Benchmark struct {
	Name        string
	Description string
	// Source is the MJ program text.
	Source string
	// Small and Large are the size arguments for the two input
	// configurations of Table 1/3.
	Small, Large int64
	// SteadyIters is a reasonable per-measurement iteration count for
	// steady-state experiments at the small size.
	SteadyIters int
}

// Compile builds a fresh program. Each call re-compiles from source so
// that callers may mutate the result (the inliner rewrites methods in
// place) without affecting other experiments.
func (b *Benchmark) Compile() (*bytecode.Program, error) {
	p, err := mj.Compile(b.Source)
	if err != nil {
		return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
	}
	return p, nil
}

// SizeFor returns the size argument for the named input ("small" or
// "large").
func (b *Benchmark) SizeFor(input string) int64 {
	if input == "large" {
		return b.Large
	}
	return b.Small
}

// Setup begins the program m runs under the protocol: it calls
// setup(size) on m and returns iter, for the caller to time.
func Setup(m *vm.VM, size int64) (*bytecode.Method, error) {
	setup := m.Prog.MethodByName("$Globals.setup")
	iter := m.Prog.MethodByName("$Globals.iter")
	if setup == nil || iter == nil {
		return nil, errors.New("program does not follow the setup/iter benchmark protocol")
	}
	if _, err := m.Call(setup, vm.IntV(size)); err != nil {
		return nil, err
	}
	return iter, nil
}

// rngPrelude is the shared deterministic LCG every program embeds.
const rngPrelude = `
	int _seed = 987654321;
	int rnd(int bound) {
		_seed = (_seed * 1103515245 + 12345) & 0x7FFFFFFF;
		return _seed % bound;
	}
	void reseed(int s) { _seed = (s & 0x7FFFFFFF) | 1; }
`

var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, b) }

// All returns the suite in declaration order (the paper's Table 1
// order).
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the named benchmark or nil.
func ByName(name string) *Benchmark {
	for _, b := range registry {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Subset returns benchmarks whose names are in the given list,
// preserving registry order; unknown names are reported.
func Subset(names []string) ([]*Benchmark, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*Benchmark
	for _, b := range registry {
		if want[b.Name] {
			out = append(out, b)
			delete(want, b.Name)
		}
	}
	if len(want) > 0 {
		var missing []string
		for n := range want {
			missing = append(missing, n)
		}
		sort.Strings(missing)
		return nil, fmt.Errorf("unknown benchmarks: %v", missing)
	}
	return out, nil
}
