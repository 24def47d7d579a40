// Package gocbs_test hosts the testing.B harness: BenchmarkArtifact runs
// every table, figure and study of experiment.Artifacts at reduced scale
// (the full-scale runs are produced by cmd/cbsbench and recorded in
// EXPERIMENTS.md), and three microbenchmarks time what no artifact and
// no internal/vm benchmark does.
//
//	go test -bench=. -benchmem
package gocbs_test

import (
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/experiment"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/opt"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// quickCfg returns a subsetted, single-seed configuration sized so
// each experiment iteration stays in the low seconds.
func quickCfg(tb testing.TB, names ...string) experiment.Config {
	tb.Helper()
	cfg := experiment.QuickConfig()
	sub, err := bench.Subset(names)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Benchmarks = sub
	return cfg
}

// BenchmarkArtifact regenerates each entry of experiment.Artifacts — the
// list cbsbench's flags are read from — on two call-dense programs at
// the small input: BenchmarkArtifact/table-2a, /figure-5b, /study-skew.
func BenchmarkArtifact(b *testing.B) {
	cfg := quickCfg(b, "jess", "javac")
	for _, a := range experiment.Artifacts {
		a := a
		b.Run(a.Kind+"-"+a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Render(cfg, "small"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- microbenchmarks of the substrate itself ---

// BenchmarkCBSOverheadOnVM measures the Go-level (not modeled) cost the
// CBS profiler adds to interpretation.
func BenchmarkCBSOverheadOnVM(b *testing.B) {
	for _, withProfiler := range []bool{false, true} {
		name := "bare"
		if withProfiler {
			name = "cbs"
		}
		b.Run(name, func(b *testing.B) {
			prog, err := bench.ByName("jess").Compile()
			if err != nil {
				b.Fatal(err)
			}
			m := vm.New(prog)
			if withProfiler {
				m.SetProfiler(profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 1}))
				m.SetTimer(1_000_000)
			}
			iter, err := bench.Setup(m, 128)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Call(iter); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMJCompile measures front-end throughput on the largest
// suite program.
func BenchmarkMJCompile(b *testing.B) {
	src := bench.ByName("javac").Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mj.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInlineOptimize measures the optimizer on a full program: the
// testing.B twin of the repo benchmark's inline.trivial_ms, under the
// profile-directed policy. fused inlines into, and out of, bodies that
// opt.FuseProgram has already rewritten.
func BenchmarkInlineOptimize(b *testing.B) {
	bb := bench.ByName("javac")
	g, err := experiment.PerfectDCG(quickCfg(b, "javac"), bb, bb.Small/4)
	if err != nil {
		b.Fatal(err)
	}
	for _, fused := range []bool{false, true} {
		name := "plain"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				prog, err := bb.Compile()
				if err != nil {
					b.Fatal(err)
				}
				if fused {
					if _, err := opt.FuseProgram(prog); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := inline.Optimize(prog, inline.NewNewLinear(), g, inline.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
