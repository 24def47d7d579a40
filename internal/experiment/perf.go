package experiment

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gocbs/internal/adaptive"
	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/daemon"
	"gocbs/internal/inline"
	"gocbs/internal/opt"
	"gocbs/internal/perf"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

// The perf trajectory (cbsbench -study perf) measures the harness
// itself rather than the paper's subjects: interpreter dispatch
// throughput (modeled megacycles simulated per wall-clock second,
// unfused and with superinstruction fusion), the profiling overhead
// the paper's techniques cost on this substrate, and daemon ingest
// throughput through the pooled batched-decode path. The result is a
// schema-versioned perf.Report written to BENCH_<n>.json; BENCH_1.json
// is the checked-in baseline every later report gates against.

// PerfParams sizes the perf-trajectory measurement.
type PerfParams struct {
	// Reps is how many times each (benchmark, program) pair is run;
	// rates are best-of to shed scheduler noise.
	Reps int
	// IngestPushers is the concurrency of the daemon measurement.
	IngestPushers int
	// IngestRequestsPerPusher is how many snapshots each pusher posts.
	IngestRequestsPerPusher int
	// IngestEdges is the DCGB payload size in edges.
	IngestEdges int
	// Quick marks the report as a reduced-confidence smoke run.
	Quick bool
}

// DefaultPerfParams sizes the committed-baseline measurement.
func DefaultPerfParams() PerfParams {
	return PerfParams{Reps: 3, IngestPushers: 8, IngestRequestsPerPusher: 50, IngestEdges: 2000}
}

// QuickPerfParams sizes the bench-smoke measurement.
func QuickPerfParams() PerfParams {
	return PerfParams{Reps: 2, IngestPushers: 4, IngestRequestsPerPusher: 25, IngestEdges: 500, Quick: true}
}

// PerfTrajectory runs the full measurement and returns the report.
func PerfTrajectory(cfg Config, input string, params PerfParams) (*perf.Report, error) {
	if params.Reps < 1 {
		params.Reps = 1
	}
	pool := cfg.startPool()

	rates, err := measureDispatch(cfg, pool, input, params)
	if err != nil {
		return nil, err
	}
	overhead, err := measureOverhead(cfg, pool, input)
	if err != nil {
		return nil, err
	}
	ingest, err := measureIngest(params)
	if err != nil {
		return nil, err
	}
	fleetScale, err := measureFleetScale(params, ingest)
	if err != nil {
		return nil, err
	}
	profilers, err := measureProfilers(cfg, pool, input)
	if err != nil {
		return nil, err
	}

	var plainRates, fusedRates, ratios, dbRatios []float64
	for _, r := range rates {
		plainRates = append(plainRates, r.McycPerSec)
		fusedRates = append(fusedRates, r.FusedMcycPerSec)
		ratios = append(ratios, r.FusedMcycPerSec/r.McycPerSec)
		if r.DispatchBound {
			dbRatios = append(dbRatios, r.FusedMcycPerSec/r.McycPerSec)
		}
	}
	snap := pool.Snapshot()
	return &perf.Report{
		Schema: perf.SchemaVersion,
		Meta: perf.Meta{
			Commit:      buildCommit(),
			GoVersion:   runtime.Version(),
			Input:       input,
			Seeds:       cfg.Seeds,
			TimerPeriod: cfg.TimerPeriod,
			Quick:       params.Quick,
		},
		Interpreter: rates,
		Summary: perf.Summary{
			GeomeanMcycPerSec:            stats.GeoMean(plainRates),
			GeomeanFusedMcycPerSec:       stats.GeoMean(fusedRates),
			FusedSpeedupPct:              (stats.GeoMean(ratios) - 1) * 100,
			DispatchBoundFusedSpeedupPct: (stats.GeoMean(dbRatios) - 1) * 100,
			// The harness-wide rate comes from the same pool accumulator
			// the -progress meter renders (runner.Progress.Mcyc/Rate).
			HarnessMcycPerSec: snap.Rate(),
			HarnessMcyc:       snap.Mcyc(),
		},
		Overhead:   overhead,
		Ingest:     ingest,
		FleetScale: fleetScale,
		Profilers:  profilers,
	}, nil
}

// timedRun executes prog bare params.Reps times and returns the
// modeled cycle count plus the best (smallest) wall-clock duration.
func timedRun(cfg Config, prog *bytecode.Program, size int64, reps int) (uint64, time.Duration, error) {
	var cycles uint64
	var best time.Duration
	for rep := 0; rep < reps; rep++ {
		m := vm.New(prog)
		m.MaxSteps = cfg.MaxSteps
		t0 := time.Now()
		if _, err := m.Run(size); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		cfg.addCycles(m.Cycles)
		cycles = m.Cycles
		if rep == 0 || d < best {
			best = d
		}
	}
	return cycles, best, nil
}

// measureDispatch times each benchmark unfused and fused. Fusion must
// not change the modeled cycle count — that is the differential
// suite's invariant — so a mismatch here is a hard error, not a data
// point.
func measureDispatch(cfg Config, pool *runner.Pool, input string, params PerfParams) ([]perf.BenchRate, error) {
	dispatchBound := map[string]bool{}
	for _, b := range bench.DispatchBound() {
		dispatchBound[b.Name] = true
	}
	return runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (perf.BenchRate, error) {
		size := b.SizeFor(input)
		plain, err := cfg.prepare(b)
		if err != nil {
			return perf.BenchRate{}, err
		}
		fused, err := cfg.prepare(b)
		if err != nil {
			return perf.BenchRate{}, err
		}
		if _, err := opt.FuseProgram(fused); err != nil {
			return perf.BenchRate{}, fmt.Errorf("%s: fuse: %w", b.Name, err)
		}
		cycles, plainBest, err := timedRun(cfg, plain, size, params.Reps)
		if err != nil {
			return perf.BenchRate{}, fmt.Errorf("%s: %w", b.Name, err)
		}
		fusedCycles, fusedBest, err := timedRun(cfg, fused, size, params.Reps)
		if err != nil {
			return perf.BenchRate{}, fmt.Errorf("%s fused: %w", b.Name, err)
		}
		if fusedCycles != cycles {
			return perf.BenchRate{}, fmt.Errorf("%s: fusion changed modeled cycles: %d vs %d",
				b.Name, fusedCycles, cycles)
		}
		rate := float64(cycles) / 1e6 / plainBest.Seconds()
		fusedRate := float64(cycles) / 1e6 / fusedBest.Seconds()
		return perf.BenchRate{
			Name:            b.Name,
			Cycles:          cycles,
			McycPerSec:      rate,
			FusedMcycPerSec: fusedRate,
			FusedSpeedupPct: (fusedRate/rate - 1) * 100,
			DispatchBound:   dispatchBound[b.Name],
		}, nil
	})
}

// measureOverhead measures profiling overhead per benchmark:
// exhaustive call instrumentation (deterministic, one run), CBS, and
// CBS plus the online adaptive controller (medians over cfg.Seeds).
func measureOverhead(cfg Config, pool *runner.Pool, input string) ([]perf.OverheadRow, error) {
	return runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (perf.OverheadRow, error) {
		size := b.SizeFor(input)

		prog, err := cfg.prepare(b)
		if err != nil {
			return perf.OverheadRow{}, err
		}
		m := vm.New(prog)
		m.MaxSteps = cfg.MaxSteps
		m.SetProfiler(profiler.NewInstrumented())
		if _, err := m.Run(size); err != nil {
			return perf.OverheadRow{}, fmt.Errorf("%s instrumented: %w", b.Name, err)
		}
		cfg.addCycles(m.Cycles)
		exhaustive := m.Overhead() * 100

		var cbsOvh, adaptOvh []float64
		for _, seed := range cfg.Seeds {
			pc := profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: seed}

			prog, err := cfg.prepare(b)
			if err != nil {
				return perf.OverheadRow{}, err
			}
			m := vm.New(prog)
			m.MaxSteps = cfg.MaxSteps
			m.SetProfiler(profiler.NewCBS(pc))
			m.SetTimer(cfg.TimerPeriod)
			if _, err := m.Run(size); err != nil {
				return perf.OverheadRow{}, fmt.Errorf("%s cbs: %w", b.Name, err)
			}
			cfg.addCycles(m.Cycles)
			cbsOvh = append(cbsOvh, m.Overhead()*100)

			// Adaptive: the controller mutates its program, so it gets a
			// fresh clone per seed. Recompilation cycles count as
			// overhead — a JIT compiles on the application's dime.
			aprog, err := cfg.prepare(b)
			if err != nil {
				return perf.OverheadRow{}, err
			}
			cbs := profiler.NewCBS(pc)
			ctl := adaptive.NewController(aprog, inline.NewNewLinear(), cbs.Graph, inline.DefaultOptions(), 2)
			am := vm.New(aprog)
			am.MaxSteps = cfg.MaxSteps
			am.SetProfiler(profiler.Combine(cbs, ctl))
			am.SetTimer(cfg.TimerPeriod)
			if _, err := am.Run(size); err != nil {
				return perf.OverheadRow{}, fmt.Errorf("%s adaptive: %w", b.Name, err)
			}
			if ctl.Err != nil {
				return perf.OverheadRow{}, fmt.Errorf("%s controller: %w", b.Name, ctl.Err)
			}
			cfg.addCycles(am.Cycles)
			spent := am.ProfilingCycles + ctl.Stats.CompileCycles
			app := am.Cycles - spent
			if app > 0 {
				adaptOvh = append(adaptOvh, float64(spent)/float64(app)*100)
			}
		}
		return perf.OverheadRow{
			Name:          b.Name,
			ExhaustivePct: exhaustive,
			CBSPct:        stats.Median(cbsOvh),
			AdaptivePct:   stats.Median(adaptOvh),
		}, nil
	})
}

// measureIngest benchmarks the daemon ingest fast path: an in-process
// daemon on a loopback listener, hammered by concurrent pushers
// posting one fixed DCGB snapshot each round through real HTTP.
func measureIngest(params PerfParams) (perf.Ingest, error) {
	g := profile.NewDCG()
	for i := 0; i < params.IngestEdges; i++ {
		g.AddSample(profile.Edge{Caller: i % 97, Site: i, Callee: (i * 7) % 89}, float64(1+i%13))
	}
	var payload bytes.Buffer
	if _, err := g.WriteTo(&payload); err != nil {
		return perf.Ingest{}, err
	}

	ip := daemon.NewInProcess(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return perf.Ingest{}, fmt.Errorf("ingest listener: %w", err)
	}
	srv := &http.Server{Handler: ip.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	url := "http://" + ln.Addr().String() + api.PathIngest

	total := params.IngestPushers * params.IngestRequestsPerPusher
	errCh := make(chan error, params.IngestPushers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := 0; p < params.IngestPushers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < params.IngestRequestsPerPusher; i++ {
				resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload.Bytes()))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("ingest status %s", resp.Status)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	for err := range errCh {
		return perf.Ingest{}, err
	}
	return perf.Ingest{
		Requests:        total,
		Pushers:         params.IngestPushers,
		EdgesPerRequest: params.IngestEdges,
		ReqPerSec:       float64(total) / elapsed.Seconds(),
		LatencyMs:       ip.IngestLatency(),
	}, nil
}

// buildCommit extracts the VCS revision stamped into the binary, or
// "unknown" outside a stamped build (go test, go run).
func buildCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// FormatPerf renders a report for the terminal; the JSON artifact is
// the canonical output.
func FormatPerf(r *perf.Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Perf trajectory (schema v%d, commit %s, %s, input=%s)\n",
		r.Schema, r.Meta.Commit, r.Meta.GoVersion, r.Meta.Input)
	fmt.Fprintf(&sb, "%-12s %12s %14s %12s %10s  %s\n",
		"Benchmark", "Mcyc/s", "fused Mcyc/s", "speedup", "exh ovh", "cbs/adaptive ovh")
	ovh := map[string]perf.OverheadRow{}
	for _, o := range r.Overhead {
		ovh[o.Name] = o
	}
	for _, b := range r.Interpreter {
		tag := ""
		if b.DispatchBound {
			tag = "*"
		}
		o := ovh[b.Name]
		fmt.Fprintf(&sb, "%-11s%1s %12.1f %14.1f %11.1f%% %9.1f%%  %.1f%% / %.1f%%\n",
			b.Name, tag, b.McycPerSec, b.FusedMcycPerSec, b.FusedSpeedupPct,
			o.ExhaustivePct, o.CBSPct, o.AdaptivePct)
	}
	fmt.Fprintf(&sb, "geomean %.1f -> %.1f Mcyc/s (+%.1f%%); dispatch-bound (*) +%.1f%%\n",
		r.Summary.GeomeanMcycPerSec, r.Summary.GeomeanFusedMcycPerSec,
		r.Summary.FusedSpeedupPct, r.Summary.DispatchBoundFusedSpeedupPct)
	fmt.Fprintf(&sb, "harness: %.0f Mcyc simulated at %.1f Mcyc/s\n",
		r.Summary.HarnessMcyc, r.Summary.HarnessMcycPerSec)
	if r.Ingest.Requests > 0 {
		fmt.Fprintf(&sb, "ingest: %d reqs x %d edges, %d pushers: %.0f req/s, latency %s\n",
			r.Ingest.Requests, r.Ingest.EdgesPerRequest, r.Ingest.Pushers,
			r.Ingest.ReqPerSec, r.Ingest.LatencyMs)
	}
	if r.FleetScale != nil {
		sb.WriteString(FormatFleetScale(r.FleetScale))
	}
	if len(r.Profilers) > 0 {
		sb.WriteString(FormatProfilers(r.Profilers))
	}
	return sb.String()
}
