package main

import "strings"

// decl declares one metric. BENCHMARK.json repeats these lists; the
// package's test keeps the two in step.
type decl struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: worsening allowed, as a share of the parent's median
	repeat float64 // end-to-end only: worsening --compare allows between two runs of the same code and seed
	exact  bool    // a pure function of (code, seed): must repeat bit for bit
}

// workloadNames orders the five workloads; workloadWhy is BENCHMARK.json's
// one-line reason for each.
var workloadNames = []string{"vm_bare", "vm_profiled", "fleet_ingest", "fleet_mixed", "plan_loop"}

var workloads = map[string]func(*env) error{
	"vm_bare":      runVMBare,
	"vm_profiled":  runVMProfiled,
	"fleet_ingest": runFleetIngest,
	"fleet_mixed":  runFleetMixed,
	"plan_loop":    runPlanLoop,
}

func workloadList() string { return strings.Join(workloadNames, ", ") }

// endToEnd are the metrics every workload reports with tracing off. The
// driver requires each of them from each workload, so they are named for
// what a user sees rather than for one layer; README.md says what each
// means on each workload and which of the issue's named figures it is.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, repeat: 0.25},
	{name: "throughput", unit: "1/s", better: "higher", bound: 0.25, repeat: 0.15},
	{name: "latency_ms", unit: "ms", better: "lower", bound: 0.25, repeat: 0.20},
	{name: "quality_pct", unit: "%", better: "higher", bound: 0.15, exact: true},
}

// suiteNames is the 15-program suite in registry order; denseNames are
// the eight call-densest (calls per modelled kcycle at the small input).
var suiteNames = []string{
	"compress", "jess", "db", "javac", "mpegaudio", "mtrt", "jack", "ipsixql",
	"xerces", "daikon", "kawa", "jbb", "soot", "closures", "phases",
}

var denseNames = []string{"javac", "kawa", "phases", "ipsixql", "jess", "jack", "closures", "jbb"}

// smokeNames is the 3-program subset --smoke runs; all three are dense,
// so every workload has work to do.
var smokeNames = []string{"jess", "javac", "closures"}

var kernelNames = []string{"arith", "field_array", "alloc", "call_static", "call_virtual", "call_closure"}

var profileSources = []string{"exhaustive", "cbs", "mincover"}

// perLayer are the metrics a traced run reports. Every traced run emits
// all of them; a layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []decl {
	var out []decl
	add := func(unit, better string, exact bool, names ...string) {
		for _, n := range names {
			out = append(out, decl{name: n, unit: unit, better: better, exact: exact})
		}
	}
	// vm — home workload vm_bare.
	add("1/s", "higher", false, "vm_mcyc_per_s")
	for _, p := range suiteNames {
		add("1/s", "higher", false, "vm.mcyc_per_s."+p)
	}
	add("1/s", "higher", false, "vm.best_mcyc_per_s")
	add("%", "lower", false, "vm.spread_pct")
	add("ns", "lower", false, "vm.ns_per_instr")
	add("count", "lower", true, "vm.instrs", "vm.cycles", "vm.calls")
	add("B", "lower", false, "vm.alloc_bytes_per_mcyc")
	for _, k := range kernelNames {
		add("ns", "lower", false, "vm.ns_per_instr."+k)
	}
	// opt, mj, inline, bytecode — vm_bare.
	add("ms", "lower", false, "opt.fuse_ms")
	add("1/s", "higher", false, "opt.fused_mcyc_per_s")
	add("%", "higher", true, "opt.fused_instr_reduction_pct")
	add("ms", "lower", false, "mj.compile_ms", "mj.ref_interp_ms", "inline.trivial_ms")
	add("us", "lower", false, "bytecode.clone_us", "bytecode.version_us", "bytecode.encode_us", "bytecode.decode_verify_us")
	// profiler, mincover — vm_profiled.
	add("1/s", "higher", false, "exhaustive_mcyc_per_s", "cbs_mcyc_per_s", "mincover_mcyc_per_s")
	add("%", "higher", true, "cbs_accuracy_pct")
	add("%", "lower", true, "cbs_overhead_model_pct")
	for _, s := range profileSources {
		add("%", "lower", false, "profiler."+s+".wall_overhead_pct")
		add("%", "lower", true, "profiler."+s+".model_overhead_pct")
	}
	add("ns", "lower", false, "profiler.exhaustive.ns_per_call", "profiler.cbs.ns_per_sample")
	add("count", "higher", true, "profiler.cbs.samples")
	for _, p := range denseNames {
		add("%", "higher", true, "profiler.cbs.accuracy_pct."+p)
	}
	add("%", "higher", true, "profiler.cbs_j9.accuracy_pct")
	add("%", "lower", true, "profiler.cbs_j9.model_overhead_pct")
	add("ms", "lower", false, "mincover.build_ms")
	add("us", "lower", false, "mincover.finalize_us")
	add("ratio", "lower", true, "mincover.probe_ratio")
	add("count", "higher", true, "mincover.dcg_identical")
	// profile, dcgstore, api, daemon — fleet_ingest.
	add("1/s", "higher", false, "ingest_req_per_s")
	add("ms", "lower", false, "ingest_p99_ms")
	add("us", "lower", false, "profile.encode_us_per_kedge", "profile.decode_us_per_kedge",
		"profile.merge_us_per_kedge", "profile.delta_us_per_kedge", "profile.overlap_us_per_kedge")
	add("B", "lower", true, "profile.payload_bytes_p50")
	add("us", "lower", false, "dcgstore.merge_us_p50", "dcgstore.snapshot_us_p50")
	add("ms", "lower", false, "dcgstore.checkpoint_save_ms", "dcgstore.checkpoint_restore_ms")
	add("B", "lower", false, "dcgstore.checkpoint_bytes")
	add("ratio", "lower", false, "dcgstore.dup_share")
	add("ms", "lower", false, "api.push_rtt_p50_ms", "daemon.ingest_handler_p50_ms", "daemon.ingest_handler_p99_ms",
		"daemon.merge_ms_mean", "daemon.http_glue_p50_ms", "daemon.handler_glue_p50_ms")
	add("1/s", "higher", false, "ingest.best_req_per_s")
	add("%", "lower", false, "ingest.spread_pct")
	// daemon reads, plan — fleet_mixed.
	add("1/s", "higher", false, "mixed_ops_per_s")
	add("ms", "lower", false, "plan_pull_p50_ms")
	add("us", "lower", false, "daemon.plan_304_us_p50")
	add("ms", "lower", false, "daemon.plan_200_ms_p50")
	add("ratio", "higher", false, "daemon.plan_304_share")
	add("ms", "lower", false, "daemon.top_ms_p50", "daemon.snapshot_ms_p50", "daemon.metrics_ms_p50",
		"mixed.push_p50_ms", "mixed.push_p99_ms", "mixed.plan_pull_p99_ms")
	add("1/s", "higher", false, "mixed.best_ops_per_s")
	add("%", "lower", false, "mixed.spread_pct")
	add("ms", "lower", false, "plan.compile_ms_p50", "plan.compile_ms.javac")
	add("us", "lower", false, "plan.encode_us_p50", "plan.decode_us_p50")
	add("B", "lower", false, "plan.bytes_p50")
	// plan application, puller, adaptive, loop glue — plan_loop.
	add("ms", "lower", false, "loop_ms_to_good_plan")
	add("count", "lower", true, "loop_rounds_to_good_plan")
	add("%", "higher", true, "plan_speedup_model_pct", "plan_recovered_pct")
	add("ms", "lower", false, "plan.apply_ms_p50")
	add("count", "higher", true, "plan.decisions", "plan.epochs")
	add("ms", "lower", false, "puller.verify_round_ms", "puller.round_ms")
	add("count", "higher", true, "puller.swaps", "puller.polls")
	add("count", "lower", true, "puller.killed")
	add("ms", "lower", false, "adaptive.recompile_ms", "loop.pusher_round_ms", "loop.push_ms")
	add("%", "higher", true, "loop.local_speedup_model_pct")
	add("count", "higher", true, "loop.programs_converged")
	// harness — every workload.
	add("%", "lower", false, "bench.trace_overhead_pct", "bench.trace_glue_pct", "bench.machine_slowdown_pct")
	add("MB", "lower", false, "bench.peak_rss_mb")
	return out
}

// findDecl looks a metric up in both lists.
func findDecl(name string) (d decl, isEndToEnd, ok bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true, true
		}
	}
	for _, d := range perLayer {
		if d.name == name {
			return d, false, true
		}
	}
	return decl{}, false, false
}
