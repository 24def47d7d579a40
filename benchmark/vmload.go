package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"gocbs/internal/bytecode"
	"gocbs/internal/mincover"
	"gocbs/internal/opt"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

// vmRun is what one timed main(size) leaves behind.
type vmRun struct {
	raw    time.Duration // as measured
	wall   time.Duration // at the nominal machine speed
	cycles uint64        // total modelled cycles
	base   uint64        // cycles not charged to profiling
	instrs uint64
	calls  uint64
}

// runMain runs main(size) on a fresh VM over code, timing only the run,
// and checks the result against the reference. attach installs whatever
// the profile source needs on the VM before it starts.
func runMain(e *env, op liveSpan, p *program, code *bytecode.Program, attach func(*vm.VM)) (*vm.VM, vmRun) {
	m := vm.New(code)
	if attach != nil {
		attach(m)
	}
	sp := op.child("vm.run")
	t0 := time.Now()
	v, err := m.Run(p.size)
	t1 := time.Now()
	sp.end()
	e.check(err == nil && v.I == p.want,
		"%s: main(%d) returned %d (err %v); the reference interpreter says %d", p.name, p.size, v.I, err, p.want)
	return m, vmRun{
		raw: t1.Sub(t0), wall: e.meter.nominal(t0, t1),
		cycles: m.Cycles, base: m.BaseCycles(), instrs: m.Instrs, calls: m.Calls,
	}
}

// series collects the runs of a set of programs over passes:
// runs[program][pass].
type series struct {
	progs []*program
	runs  [][]vmRun
}

func newSeries(progs []*program) *series {
	return &series{progs: progs, runs: make([][]vmRun, len(progs))}
}

// add records one run and checks that the modelled quantities repeat:
// they are pure functions of the code and the seed.
func (s *series) add(e *env, i int, r vmRun) {
	if prev := s.runs[i]; len(prev) > 0 {
		e.check(prev[0].cycles == r.cycles && prev[0].instrs == r.instrs && prev[0].calls == r.calls,
			"%s: modelled counts changed between passes: %d/%d/%d cycles/instrs/calls, then %d/%d/%d",
			s.progs[i].name, prev[0].cycles, prev[0].instrs, prev[0].calls, r.cycles, r.instrs, r.calls)
	}
	s.runs[i] = append(s.runs[i], r)
}

// closePass rescales the pass just added with one slowdown for the whole
// pass, taken from the many calibration slices inside [from, to]: steadier
// than a factor per run, which a handful of slices would set.
func (s *series) closePass(e *env, from, to time.Time) {
	slow := e.meter.slowdown(from, to)
	for _, rs := range s.runs {
		r := &rs[len(rs)-1]
		r.wall = time.Duration(float64(r.raw) / slow)
	}
}

func (s *series) passes() int {
	if len(s.runs) == 0 {
		return 0
	}
	return len(s.runs[0])
}

// rate is base modelled Mcycles per wall second for one run.
func rate(r vmRun) float64 { return float64(r.base) / 1e6 / r.wall.Seconds() }

// bestRates is each program's best pass, reported beside the median.
func (s *series) bestRates() []float64 {
	out := make([]float64, len(s.runs))
	for i, rs := range s.runs {
		for _, r := range rs {
			if v := rate(r); v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// medianRates is each program's median pass. On recorded timings of 16
// runs the geomean of per-program medians spread by 2–3 % between runs,
// the upper quartile by 5–7 %, the best pass by 8 %: once times are scaled
// to the nominal machine speed the error left is two-sided, and the best
// pass is the one the scaling flattered most.
func (s *series) medianRates() []float64 {
	out := make([]float64, len(s.runs))
	for i, rs := range s.runs {
		vs := make([]float64, len(rs))
		for j, r := range rs {
			vs[j] = rate(r)
		}
		out[i] = stats.Median(vs)
	}
	return out
}

// passRates is the geomean rate of each pass, for the spread.
func (s *series) passRates() []float64 {
	out := make([]float64, s.passes())
	for j := range out {
		vs := make([]float64, len(s.runs))
		for i := range s.runs {
			vs[i] = rate(s.runs[i][j])
		}
		out[j] = stats.GeoMean(vs)
	}
	return out
}

// medianWall is the sum over programs of the median pass's wall time.
func (s *series) medianWall() time.Duration {
	var sum float64
	for _, rs := range s.runs {
		vs := make([]float64, len(rs))
		for j, r := range rs {
			vs[j] = float64(r.wall)
		}
		sum += stats.Median(vs)
	}
	return time.Duration(sum)
}

// passLoop calls pass(i) until the budget is spent, always at least
// minPasses times, and never starts a pass that the mean pass so far says
// would overrun.
func passLoop(budget time.Duration, minPasses int, pass func(i int)) int {
	start := time.Now()
	n := 0
	for {
		pass(n)
		n++
		elapsed := time.Since(start)
		if n >= minPasses && elapsed+elapsed/time.Duration(n) > budget {
			return n
		}
	}
}

// qualityFromChecks is quality_pct on the workloads that have no
// modelled quality figure: the share of output checks that passed.
func (e *env) qualityFromChecks() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.attempted == 0 {
		return 0
	}
	return 100 * float64(e.attempted-e.failed) / float64(e.attempted)
}

// ---- vm_bare ----

func runVMBare(e *env) error {
	names := e.programNames(suiteNames)
	progs, err := timeSetup(e, func() ([]*program, error) { return loadSuite(e, names, true) }, nil)
	if err != nil {
		return err
	}
	budget, minPasses := e.budget(), 1
	if e.tr != nil {
		// A traced run alternates untraced and traced passes and keeps
		// some of the budget for the per-layer measurements below.
		budget, minPasses = budget*6/10, 2
	}
	plain, traced := newSeries(progs), newSeries(progs)
	e.slices = passLoop(budget, minPasses, func(pass int) {
		s, tr := plain, (*tracer)(nil)
		if e.tr != nil && pass%2 == 1 {
			s, tr = traced, e.tr
		}
		from := time.Now()
		for i, p := range progs {
			op := tr.root("op.program_run")
			_, r := runMain(e, op, p, p.code, nil)
			op.end()
			s.add(e, i, r)
		}
		s.closePass(e, from, time.Now())
	})

	rates := plain.medianRates()
	e.set("throughput", stats.GeoMean(rates))
	e.set("latency_ms", ms(plain.medianWall()))
	if e.tr == nil {
		e.set("quality_pct", e.qualityFromChecks())
		return nil
	}

	e.set("vm_mcyc_per_s", stats.GeoMean(rates))
	for i, p := range progs {
		e.set("vm.mcyc_per_s."+p.name, rates[i])
	}
	e.set("vm.best_mcyc_per_s", stats.GeoMean(plain.bestRates()))
	e.set("vm.spread_pct", spreadPct(plain.passRates()))
	var instrs, cycles, calls uint64
	for _, rs := range plain.runs {
		instrs, cycles, calls = instrs+rs[0].instrs, cycles+rs[0].cycles, calls+rs[0].calls
	}
	e.set("vm.ns_per_instr", float64(plain.medianWall().Nanoseconds())/float64(instrs))
	e.set("vm.instrs", float64(instrs))
	e.set("vm.cycles", float64(cycles))
	e.set("vm.calls", float64(calls))
	e.set("bench.trace_overhead_pct", (stats.GeoMean(rates)/stats.GeoMean(traced.medianRates())-1)*100)

	measureAllocation(e, progs, cycles)
	if err := measureKernels(e); err != nil {
		return err
	}
	if err := measureFusion(e, progs, plain); err != nil {
		return err
	}
	measureBytecode(e, progs)
	reportSetupSpans(e)
	e.set("bench.trace_glue_pct", e.tr.glueShare()*100)
	return nil
}

// reportSetupSpans turns the set-up spans every workload records into the
// front end's per-layer figures: milliseconds per program.
func reportSetupSpans(e *env) {
	e.set("mj.compile_ms", nsToMs(stats.Median(e.tr.durations("mj.compile"))))
	e.set("inline.trivial_ms", nsToMs(stats.Median(e.tr.durations("inline.trivial"))))
	e.set("mj.ref_interp_ms", nsToMs(stats.Median(e.tr.durations("mj.ref_interp"))))
}

// measureAllocation reports the Go heap the interpreter allocates per
// modelled Mcycle, over one extra pass bracketed by runtime.MemStats.
func measureAllocation(e *env, progs []*program, cycles uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range progs {
		runMain(e, liveSpan{}, p, p.code, nil)
	}
	runtime.ReadMemStats(&after)
	e.set("vm.alloc_bytes_per_mcyc", float64(after.TotalAlloc-before.TotalAlloc)/(float64(cycles)/1e6))
}

// kernelClass maps an opcode to the microkernel class it belongs to.
// Returns count toward whichever call class the kernel is named for.
func kernelClass(op bytecode.Opcode) string {
	switch op {
	case bytecode.OpGetField, bytecode.OpPutField, bytecode.OpGetStatic, bytecode.OpPutStatic,
		bytecode.OpALoad, bytecode.OpAStore, bytecode.OpArrLen:
		return "field_array"
	case bytecode.OpNew, bytecode.OpNewArr, bytecode.OpMakeClosure:
		return "alloc"
	case bytecode.OpCallStatic:
		return "call_static"
	case bytecode.OpCallVirtual:
		return "call_virtual"
	case bytecode.OpCallClosure:
		return "call_closure"
	case bytecode.OpReturn, bytecode.OpReturnVoid:
		return "return"
	}
	return "arith"
}

// kernelMix runs a kernel once under the VM's trace hook and returns the
// share of its modelled cycles charged to instructions of its own class
// (call kernels own their returns). Tracing charges no cycles.
func kernelMix(p *program) (float64, error) {
	m := vm.New(p.code)
	var own, last uint64
	lastOwn := false
	m.Trace = func(_ *bytecode.Method, _ int, ins bytecode.Instr) {
		if lastOwn {
			own += m.Cycles - last
		}
		last = m.Cycles
		c := kernelClass(ins.Op)
		lastOwn = c == p.name || (c == "return" && len(p.name) > 5 && p.name[:5] == "call_")
	}
	if _, err := m.Run(p.size / 10); err != nil {
		return 0, err
	}
	if lastOwn {
		own += m.Cycles - last
	}
	return float64(own) / float64(m.Cycles), nil
}

// measureKernels times the six opcode-class microkernels: the outside-in
// stand-in for dispatch cost by opcode class.
func measureKernels(e *env) error {
	size, reps := int64(200_000), 5
	if e.cfg.smoke {
		size, reps = 20_000, 1
	}
	kernels, err := loadKernels(e, size)
	if err != nil {
		return err
	}
	for _, k := range kernels {
		mix, err := kernelMix(k)
		if err != nil {
			return fmt.Errorf("kernel %s: %w", k.name, err)
		}
		e.check(mix >= 0.80, "kernel %s: only %.1f%% of its modelled cycles are its own class", k.name, mix*100)
		best := 0.0
		for rep := 0; rep < reps; rep++ {
			op := e.tr.root("op.kernel_run")
			_, r := runMain(e, op, k, k.code, nil)
			op.end()
			if v := float64(r.wall.Nanoseconds()) / float64(r.instrs); best == 0 || v < best {
				best = v
			}
		}
		e.set("vm.ns_per_instr."+k.name, best)
	}
	return nil
}

// measureFusion predicts what vm_bare's throughput would be if
// superinstruction fusion were the default: fused clones of the suite,
// checked to produce the same results in the same modelled cycles.
func measureFusion(e *env, progs []*program, plain *series) error {
	fusedCode := make([]*bytecode.Program, len(progs))
	var fuseNs []float64
	for i, p := range progs {
		clone := p.code.Clone()
		op := e.tr.root("op.fuse")
		sp := op.child("opt.fuse")
		t0 := time.Now()
		_, err := opt.FuseProgram(clone)
		fuseNs = append(fuseNs, float64(e.meter.nominal(t0, time.Now())))
		sp.end()
		op.end()
		if err != nil {
			return fmt.Errorf("%s: fuse: %w", p.name, err)
		}
		fusedCode[i] = clone
	}
	fused := newSeries(progs)
	passes := 2
	if e.cfg.smoke {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		for i, p := range progs {
			_, r := runMain(e, liveSpan{}, p, fusedCode[i], nil)
			fused.add(e, i, r)
		}
	}
	var plainInstrs, fusedInstrs uint64
	for i, p := range progs {
		e.check(fused.runs[i][0].cycles == plain.runs[i][0].cycles,
			"%s: fusion changed modelled cycles: %d fused, %d unfused", p.name, fused.runs[i][0].cycles, plain.runs[i][0].cycles)
		plainInstrs += plain.runs[i][0].instrs
		fusedInstrs += fused.runs[i][0].instrs
	}
	e.set("opt.fuse_ms", nsToMs(stats.Median(fuseNs)))
	e.set("opt.fused_mcyc_per_s", stats.GeoMean(fused.medianRates()))
	e.set("opt.fused_instr_reduction_pct", (1-float64(fusedInstrs)/float64(plainInstrs))*100)
	return nil
}

// measureBytecode times what set-up and plan application do to a program
// besides compiling it: clone, content-address, encode, decode + verify.
func measureBytecode(e *env, progs []*program) {
	var clone, version, encode, decode []float64
	timeIt := func(dst *[]float64, f func()) {
		t0 := time.Now()
		f()
		*dst = append(*dst, float64(e.meter.nominal(t0, time.Now())))
	}
	for _, p := range progs {
		for rep := 0; rep < 3; rep++ {
			timeIt(&clone, func() { p.code.Clone() })
			timeIt(&version, func() { p.code.Version() })
			var buf bytes.Buffer
			timeIt(&encode, func() {
				e.check(bytecode.EncodeProgram(p.code, &buf) == nil, "%s: encode failed", p.name)
			})
			timeIt(&decode, func() {
				got, err := bytecode.DecodeProgram(bytes.NewReader(buf.Bytes()))
				e.check(err == nil && got.Version() == p.version, "%s: decode does not round-trip (err %v)", p.name, err)
			})
		}
	}
	e.set("bytecode.clone_us", nsToUs(stats.Median(clone)))
	e.set("bytecode.version_us", nsToUs(stats.Median(version)))
	e.set("bytecode.encode_us", nsToUs(stats.Median(encode)))
	e.set("bytecode.decode_verify_us", nsToUs(stats.Median(decode)))
}

// ---- vm_profiled ----

// sourceRun is one program's first-pass profile under one source.
type sourceRun struct {
	graph    *profile.DCG
	overhead float64 // ProfilingCycles / base cycles
	samples  uint64
	cover    *mincover.Cover
}

// runUnder runs p under one profile source and returns the timed run plus
// what the source collected.
func runUnder(e *env, tr *tracer, p *program, source string, seed int64) (vmRun, sourceRun) {
	op := tr.root("op.program_run")
	defer op.end()
	var out sourceRun
	var finish func()
	attach := func(m *vm.VM) {
		switch source {
		case "exhaustive":
			x := profiler.NewInstrumented()
			m.SetProfiler(x)
			out.graph = x.Graph
		case "cbs", "cbs_j9":
			cfg := cbsConfig(seed)
			if source == "cbs_j9" {
				cfg.Flavour = profiler.FlavourJ9
				m.EpilogueYieldpoints = false
			}
			c := profiler.NewCBS(cfg)
			m.SetProfiler(c)
			m.SetTimer(timerPeriod)
			out.graph = c.Graph
			finish = func() { out.samples = c.SamplesTaken }
		case "mincover":
			sp := op.child("mincover.build")
			mc := mincover.New(p.code)
			sp.end()
			m.SetProfiler(mc)
			out.graph, out.cover = mc.Graph, mc.Cover
			finish = func() {
				sp := op.child("mincover.finalize")
				err := mc.Finalize()
				sp.end()
				e.check(err == nil && mc.Unexpected == 0,
					"%s: mincover recovery failed (err %v, %d edges outside the static graph)", p.name, err, mc.Unexpected)
			}
		}
	}
	m, r := runMain(e, op, p, p.code, attach)
	if finish != nil {
		finish()
	}
	out.overhead = m.Overhead()
	return r, out
}

func sameDCG(a, b *profile.DCG) bool {
	var ab, bb bytes.Buffer
	if _, err := a.WriteTo(&ab); err != nil {
		return false
	}
	if _, err := b.WriteTo(&bb); err != nil {
		return false
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

func runVMProfiled(e *env) error {
	names := e.programNames(denseNames)
	progs, err := timeSetup(e, func() ([]*program, error) { return loadSuite(e, names, true) }, nil)
	if err != nil {
		return err
	}
	sources := profileSources
	budget, minPasses := e.budget(), 1
	if e.tr != nil {
		// The traced run adds an unprofiled source, so each profiler's
		// wall-clock cost is a paired difference inside the same pass.
		sources = append([]string{"bare"}, profileSources...)
		budget, minPasses = budget*8/10, 2
	}
	plain, traced := map[string]*series{}, map[string]*series{}
	for _, s := range sources {
		plain[s], traced[s] = newSeries(progs), newSeries(progs)
	}
	first := map[string][]sourceRun{}
	e.slices = passLoop(budget, minPasses, func(pass int) {
		set, tr := plain, (*tracer)(nil)
		if e.tr != nil && pass%2 == 1 {
			set, tr = traced, e.tr
		}
		for _, src := range sources {
			from := time.Now()
			for i, p := range progs {
				r, sr := runUnder(e, tr, p, src, e.cfg.seed)
				set[src].add(e, i, r)
				if len(first[src]) == i {
					first[src] = append(first[src], sr)
				}
			}
			set[src].closePass(e, from, time.Now())
		}
	})

	// Accuracy and modelled overhead, untimed: CBS over three seeds
	// against the exhaustive graph of the first pass.
	var accuracy, overhead []float64
	perProgram := make([][]float64, len(progs))
	var samples uint64
	identical := 0
	for i, p := range progs {
		perfect := first["exhaustive"][i].graph
		for k := int64(0); k < 3; k++ {
			sr := first["cbs"][i]
			if k > 0 {
				_, sr = runUnder(e, nil, p, "cbs", e.cfg.seed+k)
			}
			acc := profile.Accuracy(sr.graph, perfect)
			accuracy = append(accuracy, acc)
			perProgram[i] = append(perProgram[i], acc)
			overhead = append(overhead, sr.overhead*100)
		}
		samples += first["cbs"][i].samples
		if e.check(sameDCG(first["mincover"][i].graph, perfect),
			"%s: the mincover DCG is not byte-identical to the exhaustive one", p.name) {
			identical++
		}
	}

	cbs := stats.GeoMean(plain["cbs"].medianRates())
	var wall time.Duration
	for _, src := range profileSources {
		wall += plain[src].medianWall()
	}
	e.set("throughput", cbs)
	e.set("latency_ms", ms(wall))
	e.set("quality_pct", stats.Mean(accuracy))
	if e.tr == nil {
		return nil
	}

	e.set("exhaustive_mcyc_per_s", stats.GeoMean(plain["exhaustive"].medianRates()))
	e.set("cbs_mcyc_per_s", cbs)
	e.set("mincover_mcyc_per_s", stats.GeoMean(plain["mincover"].medianRates()))
	e.set("cbs_accuracy_pct", stats.Mean(accuracy))
	e.set("cbs_overhead_model_pct", stats.Mean(overhead))
	bare := plain["bare"].medianWall()
	for _, src := range profileSources {
		var model []float64
		for _, sr := range first[src] {
			model = append(model, sr.overhead*100)
		}
		e.set("profiler."+src+".wall_overhead_pct", (float64(plain[src].medianWall())/float64(bare)-1)*100)
		e.set("profiler."+src+".model_overhead_pct", stats.Mean(model))
	}
	var calls float64
	for _, sr := range first["exhaustive"] {
		calls += sr.graph.Total()
	}
	e.set("profiler.exhaustive.ns_per_call", float64((plain["exhaustive"].medianWall()-bare).Nanoseconds())/calls)
	e.set("profiler.cbs.ns_per_sample", float64((plain["cbs"].medianWall()-bare).Nanoseconds())/float64(samples))
	e.set("profiler.cbs.samples", float64(samples))
	for i, p := range progs {
		e.set("profiler.cbs.accuracy_pct."+p.name, stats.Mean(perProgram[i]))
	}
	var j9acc, j9ovh []float64
	for i, p := range progs {
		_, sr := runUnder(e, nil, p, "cbs_j9", e.cfg.seed)
		j9acc = append(j9acc, profile.Accuracy(sr.graph, first["exhaustive"][i].graph))
		j9ovh = append(j9ovh, sr.overhead*100)
	}
	e.set("profiler.cbs_j9.accuracy_pct", stats.Mean(j9acc))
	e.set("profiler.cbs_j9.model_overhead_pct", stats.Mean(j9ovh))
	var ratios []float64
	for _, sr := range first["mincover"] {
		ratios = append(ratios, sr.cover.ProbeRatio())
	}
	e.set("mincover.build_ms", nsToMs(stats.Median(e.tr.durations("mincover.build"))))
	e.set("mincover.finalize_us", nsToUs(stats.Median(e.tr.durations("mincover.finalize"))))
	e.set("mincover.probe_ratio", stats.Mean(ratios))
	e.set("mincover.dcg_identical", float64(identical))
	var plainRates, tracedRates []float64
	for _, src := range sources {
		plainRates = append(plainRates, plain[src].medianRates()...)
		tracedRates = append(tracedRates, traced[src].medianRates()...)
	}
	e.set("bench.trace_overhead_pct", (stats.GeoMean(plainRates)/stats.GeoMean(tracedRates)-1)*100)
	reportSetupSpans(e)
	e.set("bench.trace_glue_pct", e.tr.glueShare()*100)
	return nil
}
