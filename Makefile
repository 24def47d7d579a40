GO ?= go

# Every command binary, built explicitly by `make build-cmds` so ci
# catches a cmd that ./... would skip (e.g. after a package rename).
CMDS := ./cmd/cbsbench ./cmd/cbsd ./cmd/cbsload ./cmd/cbsvm ./cmd/dcgdiff ./cmd/mjc ./cmd/mjgen

# Seed for the reproducible short soak `make test-fleet` runs in ci;
# `make soak` picks a fresh one per invocation and prints it, so a
# failing soak is always reproducible with SOAK_SEED=<printed seed>.
FLEET_SEED ?= 1
SOAK_SEED ?= 0
# Generator seed for `make soak-gen`: 0 means "pick one per invocation"
# (derived from the clock below); the target echoes the seed so a failure
# replays with GEN_SEED=<printed seed>.
GEN_SEED ?= 0

.PHONY: all tier1 loc build build-cmds test test-race test-daemon test-recovery test-plan test-fleet test-federation test-mincover test-rewrite test-wire test-vm test-workload test-cbsbench soak soak-gen vet vet-cmds ci bench bench-vm bench-mj bench-store bench-profile bench-plan bench-daemon vm-asm benchmark-smoke

all: tier1

# Tier-1 verification: the gate every PR must keep green.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Non-test Go lines per internal/* package and their total: the number
# ROADMAP item 3's acceptance and every simplicity PR quote. The last two
# lines are the whole repo's non-test and test Go lines, the ratio
# ROADMAP's re-anchors quote.
loc:
	@for d in internal/*/; do \
		printf '%6d  %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d  total\n' $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@printf '%6d  repo non-test Go\n' $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@printf '%6d  repo _test.go\n' $$(find . -name '*_test.go' | xargs cat | wc -l)

build:
	$(GO) build ./...

build-cmds:
	$(GO) build $(CMDS)

# Race coverage for the concurrent layers: the parallel experiment
# runner, the experiments that fan out over it, the profilers the jobs
# drive, the concurrent DCG store (its soak test is the
# K-writers-vs-serial-reference check plus the decay-race property
# test), the inline transform's clone isolation soak, the plan
# service's cached compilation, the in-process daemon, the
# pulling VM, and the chaos fleet simulator.
test-race:
	$(GO) test -race ./internal/runner/... ./internal/experiment/... ./internal/profiler/... ./internal/bytecode/... ./internal/dcgstore/... ./internal/inline/... ./internal/mj/... ./internal/plan/... ./internal/daemon/... ./internal/puller/... ./internal/fleetsim/... ./internal/api/... ./internal/mincover/...

# The cbsd aggregation daemon's httptest-based endpoint tests, the
# hostile-pusher fuzz corpus, and the runner-driven multi-pusher
# convergence test (the daemon lives in internal/daemon), then cmd/cbsd's
# flag handling through the real binary: a retired flag is a flag error,
# a -role that contradicts -upstream or a bad -upstream-id stops it.
test-daemon:
	$(GO) test ./internal/daemon/...
	$(GO) test ./cmd/cbsd/

# Durability and exactly-once delivery, under the race detector: the
# checkpoint round trip and the golden checkpoint file / forwarder state
# written by an earlier commit, a save of the next generation that fails
# part-way (Generation), manifest registration order across a restart
# (RegistrationOrder), FuzzRestoreCheckpoint's seed corpus, sequence
# dedup, the flaky-pusher soak (a daemon that drops responses while
# pushers retry), the forwarder's restart and failed-persist rollback,
# the state files its restore refuses and FuzzRestoreForwardState's seed
# corpus, and the SIGTERM kill-and-restart lifecycle.
test-recovery:
	$(GO) test -race -run 'Checkpoint|Restore|Golden|Generation|RegistrationOrder|Sequence|Sequenced|Duplicate|Dedup|Flaky|Retr|Outage|GiveUp|Sigterm|Corrupt|Restart|PersistFailure|Transient' ./internal/dcgstore/... ./internal/daemon/...

# The fleet PGO loop: plan wire round trip + rejection paths, the
# fuzz seed corpus, stability/determinism properties, the K-pusher/
# 1-puller end-to-end test against a live daemon, and the pulling VM's
# divergence kill switch. Then the pins a change to the plan path must
# not move beside TestPlanSequencePinned (run with ./internal/plan/):
# the ladder of the in-process plan loop, the fleet soak's scenario
# digests and the /v1/metrics body.
test-plan:
	$(GO) test ./internal/plan/...
	$(GO) test -run 'Fuzz' ./internal/plan/...
	$(GO) test -run 'TestPlanLoopLadderPinned|TestScenarioDigestsPinned|TestMetricsShapePinned' ./internal/experiment/ ./internal/fleetsim/ ./internal/daemon/
	$(GO) test -run 'TestPlan' ./internal/daemon/...
	$(GO) test -run 'TestPull' ./internal/puller/...

# The chaos harness, twice over: the fleetsim tests — every scenario of
# the one runner (flat, tree, rolling upgrade: half the fleet flips to
# a modified build mid-run, conservation and plan epochs checked per
# version, restart byte-identity for both builds, zero cross-version
# plans, a misrouted probe refusing v1 plans while running v2), the
# negative tests (every invariant checker must be shown to fire), and
# the digests pinned across commits — then a short fixed-seed soak
# through the real cbsload binary: all four fault kinds, a mid-run
# daemon restart, exit 1 on any invariant failure.
test-fleet:
	$(GO) test ./internal/fleetsim/...
	$(GO) run ./cmd/cbsload -vms 8 -rounds 4 -seed $(FLEET_SEED) -faults all -restarts 1

# The federated aggregation tier: the api surface (routes, envelope,
# client retry policy), the leaf forwarder's property tests in
# internal/dcgstore (crash/restart exactness, failed-persist rollback,
# keyed builds and manifests relayed, the golden state file and the
# files restore refuses; a re-routed pusher never double-counts at the
# root), the root's leaf registry, the live two-daemon
# leaf→root tree, the leaf's plan relay (stale serve, no-cache 503,
# relayed 404, its metrics), a leaf's shutdown behind a root that never
# answers, the relay and plan.Client taking no lock across a round trip
# (under -race), and a short fixed-seed federated chaos soak —
# 16 VMs round-robin over 4 leaves + 1 root, leaf kills mid-merge,
# conservation checked fleet-wide at the root.
test-federation:
	$(GO) test ./internal/api/...
	$(GO) test -run 'TestForwarder|TestGoldenForwardState|TestReRouted|FuzzRestoreForwardState' ./internal/dcgstore/
	$(GO) test -run 'TestLeaf|TestTree|TestRelay|TestPlanRelay|TestRegistry' ./internal/daemon/... ./internal/fleetsim/...
	$(GO) test -race -run 'TestClientDoesNotSerializeAcrossBuilds|TestPlanRelayDoesNotSerializeAcrossPrograms' ./internal/plan/ ./internal/daemon/
	$(GO) run ./cmd/cbsload -vms 16 -leaves 4 -rounds 4 -seed $(FLEET_SEED) -faults all -restarts 2

# Minimum-coverage instrumentation: the unit tests, the 15-benchmark
# differential gate (recovered DCG byte-identical to exhaustive with
# strictly fewer probed call points, plain and inlined), the
# random-program recovery fuzz, and the three-way profiler study
# (exhaustive vs CBS vs mincover) through the real cbsbench binary.
test-mincover:
	$(GO) test ./internal/mincover/...
	$(GO) run ./cmd/cbsbench -study profilers -quick

# The bytecode rewrite seam (bytecode.ScanFlow / Relayout / Install under
# the inliner, cleanup and fusion), by name: the rewritten suite and ten
# generated programs against the bytes the three separate rewriters
# produced, mincover's classes and probe sets against the ones its own
# scan produced, every pass order against the reference interpreter (15
# programs) and under every observer (50 generated seeds), a failed
# rewrite leaving its method untouched, and every mutant and fuzz seed
# that verifies through each rewriter without a panic.
test-rewrite:
	$(GO) test -run 'TestRewrittenProgramsPinned|TestFuseDifferentialSuite|TestFailedRewriteLeavesMethodUntouched' ./internal/opt/
	$(GO) test -run 'TestCFGDigestsPinned|TestGeneratedDifferentialGate' ./internal/mincover/
	$(GO) test -run 'TestRejectedRoundLeavesMethodUntouched' ./internal/inline/
	$(GO) test -run 'TestFailedRecompileLeavesProgramRunning' ./internal/adaptive/
	$(GO) test -run 'TestMutatedSuiteRunsOrTraps|FuzzDecodeProgram' ./internal/bytecode/

# The wire formats, one codec each, by name: the DCG and plan bytes
# against the ones the encoders wrote before they were rewritten (DCGB
# as of its v2 header), DCGB v1 still read as a graph that counts no
# windows, every payload of the retired generation refused where it used
# to be read (the text DCG by both decoder spellings and by /v1/ingest,
# plan wire v1, the version-less plan file name, a served plan for
# another build or none, a flat route), every daemon path README.md names
# a route of internal/api, an unstamped push sent exactly once, the
# ingest ack the daemon writes compact and the push client reads as
# json.Unmarshal does (any ack an older or newer daemon may send), and the
# seed corpora of the three fuzz targets that face those decoders.
test-wire:
	$(GO) test -run 'TestWireBytesPinned|TestVersion1Decodes|TestTextPayloadRefused|FuzzReadDCG' ./internal/profile/
	$(GO) test -run 'TestWireBytesPinned|TestReadPlanRejectsMalformed|TestServiceRestoreRefusesForeignPlan|TestFetchVersionRefusesOtherBuilds|FuzzReadPlan' ./internal/plan/
	$(GO) test -run 'TestIngestRefusesTextProfile|TestUnversionedPathsAreNotRoutes|TestReadmePathsAreRoutes|FuzzIngestHostilePusher|TestIngestAckIsCompact' ./internal/daemon/
	$(GO) test -run 'TestIngestAckDecodes' ./internal/api/
	$(GO) test -run 'TestUnstampedPushIsNotRetried' ./internal/dcgstore/
	$(GO) test -run 'TestLoadProfile' ./cmd/dcgdiff/

# The interpreter's exactness, by name: the VM as its own oracle (a no-op
# Trace function steps the method's own code an instruction at a time;
# without one the VM pays by the span and dispatches on its execution
# image) over the suite, every observer, timer and step limit; the window
# catalogue's dispatch gate and every row's share; a tick and a step limit
# on every part of every window, a trap in any part of one, a branch into
# one; the stack limit on the call run makes in its registers; the VM
# state at every hook and the rewritten programs against the lines pinned
# before the state moved into locals and the rewriters onto one seam; what
# the counting profilers collect against the lines pinned while they were
# call listeners, the share of counted calls that leave run's registers,
# and what a VM with several profilers pays for the ones that watch no
# call; and every mutant and fuzz seed that verifies, stepped against the
# image.
test-vm:
	$(GO) test -run 'TestSteppedEqualsCharged|TestImageDispatches|TestWindowsKernelHoldsEveryRow|TestTickInsideEveryWindow|TestStepLimitInsideEveryWindow|TestTrapInsideWindow|TestBranchIntoWindow|TestStackLimitHoldsInRegisters|TestObserverDigestsPinned|TestCountedGraph|TestCountedCallsStayInRegisters|TestSetProfilerWiresOnlyWhatPartsImplement|TestStructTailIsCold' ./internal/vm/
	$(GO) test -run 'TestRewrittenProgramsPinned|TestFuseDifferentialSuite' ./internal/opt/
	$(GO) test -run 'TestMutatedSuiteRunsOrTraps|FuzzDecodeProgram' ./internal/bytecode/

# The workload frontier: the shaped generator's determinism + shape
# differential tests, the mjgen CLI contract (-check without -run,
# non-zero exits with seed echo), the 50-seed differential gate every
# generated program passes ({plain, inlined, fused and three orders of
# inline, cleanup and fuse together} × {bare, exhaustive, cbs,
# mincover} vs the reference interpreter, byte-exact
# mincover recovery, closure points demoted not exhaustive), the
# profiler closure-site tests, the closure opcode round-trip tests,
# the fusion closure-barrier test, and a generated-workload fleet soak.
test-workload:
	$(GO) test -run 'TestShaped|TestDifferential|FuzzGeneratedDifferential' ./internal/mj/
	$(GO) test ./cmd/mjgen/
	$(GO) test -run 'TestGeneratedDifferentialGate|TestClosureBenchmarksDemoted' ./internal/mincover/
	$(GO) test -run 'Closure' ./internal/profiler/ ./internal/bytecode/ ./internal/opt/
	$(GO) test -run 'TestFleetSoakGenerated|TestFleetGeneratedWorkload' ./internal/fleetsim/

# The experiment harness's CLI contract: one artifact end to end, the
# unknown-name exit, -all visiting exactly experiment.Artifacts and
# writing no file, flags applied after -quick.
test-cbsbench:
	$(GO) test ./cmd/cbsbench/...

# A bigger randomized soak for hunting; cbsload prints the chosen seed
# up front and repeats it on failure, so any hit replays with
# `make soak SOAK_SEED=<seed>`.
soak:
	$(GO) run ./cmd/cbsload -vms 32 -rounds 8 -seed $(SOAK_SEED) -faults all -restarts 2

# The generated-workload soak: the full chaos fleet on a novel program
# nobody tuned for. GEN_SEED=0 draws a random generator seed; the
# banner cbsload prints carries the seed, so any failure replays with
# `make soak-gen GEN_SEED=<seed>`.
soak-gen:
	@seed=$(GEN_SEED); if [ "$$seed" = "0" ]; then seed=$$(($$(date +%s) % 100000)); fi; \
	echo "soak-gen: generator seed $$seed (replay: make soak-gen GEN_SEED=$$seed)"; \
	$(GO) run ./cmd/cbsload -vms 16 -rounds 6 -seed $(SOAK_SEED) -faults all -restarts 1 \
		-gen-seed $$seed -gen-shape closureheavy -profilers cbs,exhaustive,mincover

vet:
	$(GO) vet ./...

# Explicit vet pass over the command binaries (kept separate so ci
# still flags a cmd that a package rename dropped from ./...).
vet-cmds:
	$(GO) vet ./cmd/...

ci: tier1 vet vet-cmds build-cmds test-daemon test-plan test-race test-recovery test-fleet test-federation test-mincover test-rewrite test-wire test-vm test-workload test-cbsbench benchmark-smoke

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The interpreter layer alone, as testing.B: BenchmarkInterpreter/<program>
# for the 15 suite programs and BenchmarkDispatch/<opcode class>, each
# reporting ns/instr and allocs/op. These are the twins of the repo
# benchmark's vm.mcyc_per_s.<program> and vm.ns_per_instr.<class> rows:
# add -cpuprofile to land on the lines those rows name. Dispatch/windows,
# beside arith, is a kernel in which every row of the execution image's
# window catalogue runs: what fusing in place saves per instruction.
# call_static_counted and call_virtual_counted (eight receiver classes in
# turn at every call point, beside its bare twin call_virtual_rotating)
# run under the instrumented exhaustive profiler, a vm.CallCounter: the
# path profiler.exhaustive.ns_per_call pays for; call_static_hooked is the
# round trip a call listener still costs. BenchmarkInterpreterPair runs
# two VMs made back to back on two goroutines: false sharing between
# their structs shows there and nowhere else.
bench-vm:
	$(GO) test -run=^$$ -bench='Interpreter|Dispatch' ./internal/vm/

# The MJ reference interpreter alone, as testing.B: BenchmarkRefInterp/<program>
# runs main of each of the 15 suite programs at the small input under
# mj.NewRefInterp, reporting ns/op and allocs/op: the twin of the repo
# benchmark's mj.ref_interp_ms, which is most of vm_bare's and
# vm_profiled's setup_s. Informational, not a gate: compare the minimum
# of five alternating runs of a parent and a change binary.
bench-mj:
	$(GO) test -run=^$$ -bench=RefInterp -benchmem ./internal/mj/

# The store layer alone, as testing.B: BenchmarkStoreMergeDCGFrom (13,
# 100 and 410-edge deltas into a 1 500-edge store, serial and two
# pushers at GOMAXPROCS 2), BenchmarkStoreSnapshot and
# BenchmarkStoreCheckpointState. The twins of the repo benchmark's
# dcgstore.merge_us_p50, dcgstore.snapshot_us_p50 and the in-memory part
# of dcgstore.checkpoint_save_ms. Informational, not a gate: compare the
# minimum of five alternating runs of a parent and a change binary.
bench-store:
	$(GO) test -run=^$$ -bench=Store -benchmem ./internal/dcgstore/

# The profile layer alone, as testing.B: BenchmarkEncode, BenchmarkDecode,
# BenchmarkMerge and BenchmarkOverlap run every suite program's CBS graph
# through DCG.Encode, DecodeDCGBytes, DCG.Merge and Overlap (against
# their merge) once per op and report microseconds per thousand edges:
# the twins of the repo benchmark's profile.encode_us_per_kedge,
# profile.decode_us_per_kedge, profile.merge_us_per_kedge and
# profile.overlap_us_per_kedge. Informational, not a gate: compare the
# minimum of five alternating runs of a parent and a change binary.
bench-profile:
	$(GO) test -run=^$$ -bench='Encode|Decode|Merge|Overlap' -benchmem ./internal/profile/

# The plan service alone, as testing.B: BenchmarkServicePull — a pull
# after a push that moved nothing the policy sees (unchanged: snapshot,
# one pass over the edges, no compile) beside one after a push that did
# (moved: condition and compile) for compress, jess and javac over a
# real store — BenchmarkCondition, and BenchmarkCompileWithPrior: javac's
# merged CBS graph compiled with no prior and with an earlier plan of the
# same chain as prior, which holds decisions the graph no longer elects
# (held says how many): what retention — a site-weight lookup per prior
# decision and one more inline.Evidence once a held guard asks — adds to
# a compile; BenchmarkSiteEstimate is that table alone, built from the
# same graph and asked for every site's dominant target. Then what a
# served plan costs after the compile, one step each for compress, jess
# and javac: BenchmarkPlanEncode, BenchmarkPlanDecode (ReadPlan),
# BenchmarkPlanApply (on a clone, the clone off the clock) and
# BenchmarkPullerVerifyRound (RunRound of the applied program, two
# iterations at the small input).
# The twins of the repo benchmark's daemon.plan_304_us_p50,
# plan.compile_ms_p50 / plan.compile_ms.javac, plan.encode_us_p50,
# plan.decode_us_p50, plan.apply_ms_p50 and puller.verify_round_ms.
# Informational, not a gate: compare the minimum of five alternating
# runs of a parent and a change binary.
bench-plan:
	$(GO) test -run=^$$ -bench='ServicePull|Condition|CompileWithPrior|SiteEstimate|PlanEncode|PlanDecode|PlanApply|PullerVerifyRound' -benchmem ./internal/plan/

# The daemon's handlers alone, as testing.B, driven in-process in the
# repo benchmark's shape: BenchmarkIngestHandler (one stamped, keyed
# push of a real delta), BenchmarkPushRoundTrip (the same push as a
# pusher makes it: api.Client.PushDeltaKeyed over loopback, ack read),
# BenchmarkMetricsHandler (one /v1/metrics scrape of a daemon that has
# served 1e3 and 1e5 pushes) and BenchmarkTopHandler, over
# BenchmarkHistogramObserve (serial, and every goroutine on the one
# mutex: read it at -cpu 2), BenchmarkHistogramSummary after 1e3, 1e5
# and 1e6 observations and BenchmarkTopEdges. The twins of the repo
# benchmark's daemon.ingest_handler_p50_ms, api.push_rtt_p50_ms and
# fleet_ingest's latency_ms, daemon.metrics_ms_p50 and
# daemon.top_ms_p50. A scrape
# reports a fixed number of figures, so after_1e5 must read within 2x
# of after_1e3 (before PR 26 it was ~30x). Informational, not a gate:
# compare the minimum of five alternating runs of a parent and a change
# binary.
bench-daemon:
	$(GO) test -run=^$$ -bench=Histogram -benchmem -cpu 1,2 ./internal/stats/
	$(GO) test -run=^$$ -bench=TopEdges -benchmem ./internal/profile/
	$(GO) test -run=^$$ -bench='IngestHandler|PushRoundTrip|MetricsHandler|TopHandler' -benchmem -benchtime=2000x ./internal/daemon/

# What the compiler made of the interpreter's straight line: writes
# (*VM).run's assembly to .bench_build/vm-run.S and counts the machine
# instructions every bytecode pays besides its own case — the fall-through
# chain that ends in the switch's jump-table JMP, which the non-terminator
# cases jump back to — and the register-to-register MOVs and Go-stack
# accesses among them (PR 16 with go1.24: 16, 0 and 4; at its parent the
# chain was split in two, ~30 with 10-16 moves. PR 20, the execution
# image's 17 more cases: 17, 0 and 5 — the pc store as before and four
# loads the register allocator places at the loop head and overwrites
# before use, spans' three words as before and now baseDepth, which comes
# with the two windows that read their jump's target from code[pc]; with
# those two off it is 16, 0 and 4. A tuple assignment of two Values in
# one case, or a continue in one, puts a store of sp or three moves on
# every dispatch: this is where that shows). Informational: the numbers
# belong to one toolchain, so this is not in ci.
vm-asm:
	@mkdir -p .bench_build
	@$(GO) build -gcflags=-S ./internal/vm 2>&1 | awk '/^gocbs\/internal\/vm\.\(\*VM\)\.run STEXT/ {p=1; print; next} /^[^\t]/ {p=0} p' > .bench_build/vm-run.S
	@awk -F'\t' '$$3 != "" && $$3 !~ /^(PCDATA|FUNCDATA|NOP)$$/ { n++; op[n] = $$3; arg[n] = $$4 } \
		END { for (j = n; j > 0 && !(op[j] == "JMP" && arg[j] ~ /^\(/); j--); \
			if (j == 0) { print "vm-asm: no jump-table JMP in (*VM).run"; exit 1 } \
			for (i = j - 1; i > 0 && op[i] != "JMP" && op[i] != "RET" && op[i] !~ /^CALL/; i--) { \
				if (op[i] ~ /^MOV/ && arg[i] ~ /^[A-Z][A-Z0-9]*, [A-Z][A-Z0-9]*$$/) mov++; \
				if (arg[i] ~ /\(SP\)/) stack++ } \
			printf "vm-asm: %d machine instructions from the top of the straight line to the jump-table JMP, %d register-to-register MOVs, %d Go-stack accesses (.bench_build/vm-run.S)\n", j - i, mov, stack }' .bench_build/vm-run.S

# The repo benchmark (BENCHMARK.json, benchmark/) at smoke size: every
# workload runs briefly and every declared metric must be reported.
benchmark-smoke:
	$(GO) run ./benchmark --smoke
