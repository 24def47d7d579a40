package experiment

import (
	"fmt"
	"strings"

	"gocbs/internal/adaptive"
	"gocbs/internal/inline"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/vm"
)

// E13: peephole-cleanup ablation. After profile-directed inlining, a
// JIT normally tidies the spliced code (jump threading, constant
// folding, dead-code elimination). This study measures what the
// cleanup pass buys on top of CBS-driven inlining: steady-state
// cycles and post-compile code size, with and without cleanup.

// CleanupRow is one benchmark's ablation result.
type CleanupRow struct {
	Name string

	InlinedIterCycles uint64 // steady state, inlining only
	CleanedIterCycles uint64 // steady state, inlining + cleanup
	SpeedupPct        float64

	InlinedCodeSize int
	CleanedCodeSize int
}

// CleanupAblation measures the E13 rows.
func CleanupAblation(cfg Config, input string) ([]CleanupRow, error) {
	pc := profiler.DefaultCBS(profiler.FlavourRVM)
	if len(cfg.Seeds) > 0 {
		pc.Seed = cfg.Seeds[0]
	}
	// One job per (benchmark × {inline-only, inline+cleanup}) build.
	pool := cfg.startPool()
	type job struct {
		bi    int
		clean bool
	}
	type build struct {
		per  uint64
		size int
	}
	var jobs []job
	for bi := range cfg.Benchmarks {
		jobs = append(jobs, job{bi: bi, clean: false}, job{bi: bi, clean: true})
	}
	builds, err := runner.Map(pool, jobs, func(_ int, j job) (build, error) {
		b := cfg.Benchmarks[j.bi]
		size := b.SizeFor(input)
		prog, err := cfg.prepare(b)
		if err != nil {
			return build{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		g, err := profilePhase(cfg, prog, size, pc, b.SteadyIters)
		if err != nil {
			return build{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		var st adaptive.CompileStats
		if j.clean {
			st, err = adaptive.RecompileWithCleanup(prog, vm.DefaultCostModel(), inline.NewNewLinear(), g, inline.DefaultOptions())
		} else {
			st, err = adaptive.Recompile(prog, vm.DefaultCostModel(), inline.NewNewLinear(), g, inline.DefaultOptions())
		}
		if err != nil {
			return build{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		per, err := steadyState(cfg, prog, size, b.SteadyIters)
		if err != nil {
			return build{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		return build{per: per, size: st.TotalCodeSize}, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []CleanupRow
	for bi, b := range cfg.Benchmarks {
		inlined, cleaned := builds[bi*2], builds[bi*2+1]
		rows = append(rows, CleanupRow{
			Name:              b.Name,
			InlinedIterCycles: inlined.per,
			CleanedIterCycles: cleaned.per,
			SpeedupPct:        speedup(inlined.per, cleaned.per),
			InlinedCodeSize:   inlined.size,
			CleanedCodeSize:   cleaned.size,
		})
	}
	return rows, nil
}

// FormatCleanup renders the ablation.
func FormatCleanup(rows []CleanupRow) string {
	var sb strings.Builder
	sb.WriteString("Peephole-cleanup ablation (on top of CBS-driven inlining)\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s %10s %12s %12s\n",
		"Benchmark", "inlined cyc/it", "cleaned cyc/it", "speedup", "size before", "size after")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %14d %14d %9.2f%% %12d %12d\n",
			r.Name, r.InlinedIterCycles, r.CleanedIterCycles, r.SpeedupPct,
			r.InlinedCodeSize, r.CleanedCodeSize)
	}
	return sb.String()
}
