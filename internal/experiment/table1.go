package experiment

import (
	"fmt"
	"strings"

	"gocbs/internal/bench"
	"gocbs/internal/runner"
)

// Table1Row is one benchmark characteristics entry (the analog of the
// paper's Table 1: running time, methods executed, bytecode size).
type Table1Row struct {
	Name    string
	Input   string
	MCycles float64 // modeled megacycles (the "running time")
	Methods int     // distinct methods executed
	SizeK   float64 // executed bytecode size (K instructions of code)
	Calls   uint64  // dynamic calls (extra diagnostic)
}

// Table1 measures benchmark characteristics for both input sizes, one
// runner job per (input × benchmark).
func Table1(cfg Config) ([]Table1Row, error) {
	pool := cfg.startPool()
	type key struct {
		input string
		b     *bench.Benchmark
	}
	var keys []key
	for _, input := range []string{"small", "large"} {
		for _, b := range cfg.Benchmarks {
			keys = append(keys, key{input, b})
		}
	}
	return runner.Map(pool, keys, func(_ int, k key) (Table1Row, error) {
		prog, err := cfg.prepare(k.b)
		if err != nil {
			return Table1Row{}, err
		}
		m := cfg.newVM(prog)
		if err := cfg.run(m, k.b.SizeFor(k.input)); err != nil {
			return Table1Row{}, fmt.Errorf("%s-%s: %w", k.b.Name, k.input, err)
		}
		return Table1Row{
			Name:    k.b.Name,
			Input:   k.input,
			MCycles: float64(m.Cycles) / 1e6,
			Methods: m.MethodsExecuted(),
			SizeK:   float64(prog.TotalCodeSize()) / 1000,
			Calls:   m.Calls,
		}, nil
	})
}

// FormatTable1 renders Table 1 as text.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Benchmark characteristics (JIT-only configuration)\n")
	fmt.Fprintf(&sb, "%-12s %-6s %12s %9s %9s %12s\n",
		"Benchmark", "Input", "Mcycles", "Meth exe", "Size (K)", "Calls")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-6s %12.1f %9d %9.2f %12d\n",
			r.Name, r.Input, r.MCycles, r.Methods, r.SizeK, r.Calls)
	}
	return sb.String()
}
