package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a workload sets up from scratch; setup_s
// is the median, which a single slow start cannot move.
const setupReps = 3

// env is what a workload reports into: operation counts, failed checks,
// metrics, and (in a traced run) spans.
type env struct {
	cfg      config
	workload string
	tr       *tracer // nil with tracing off
	meter    *speedometer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	slices    int
}

func newEnv(cfg config, workload string) *env {
	e := &env{cfg: cfg, workload: workload, metrics: map[string]float64{}, meter: startSpeedometer()}
	if cfg.trace {
		e.tr = &tracer{workload: workload, t0: time.Now(), meter: e.meter}
	}
	return e
}

// budget is how long the workload may measure.
func (e *env) budget() time.Duration {
	if e.cfg.smoke {
		return 300 * time.Millisecond
	}
	return time.Duration(e.cfg.seconds * float64(time.Second))
}

func (e *env) setupReps() int {
	if e.cfg.smoke {
		return 1
	}
	return setupReps
}

// ok counts n operations that completed and checked out.
func (e *env) ok(n int) {
	e.mu.Lock()
	e.attempted += n
	e.mu.Unlock()
}

// check counts one operation and records it as failed unless cond holds.
func (e *env) check(cond bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if !cond {
		e.failLocked(format, args...)
	}
	return cond
}

// fail counts one failed operation.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	e.failLocked(format, args...)
}

func (e *env) failLocked(format string, args ...any) {
	e.failed++
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric. A name may be set once; setting an undeclared
// name is caught by finish.
func (e *env) set(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.metrics[name]; dup {
		e.failLocked("metric %s set twice", name)
	}
	e.metrics[name] = v
}

// finish turns what the workload reported into its result: the declared
// end-to-end metrics with tracing off, the declared per-layer metrics
// with tracing on (a layer the workload does not exercise reads 0).
func (e *env) finish() (*result, error) {
	e.meter.halt()
	decls := endToEnd
	if e.tr != nil {
		e.set("bench.peak_rss_mb", peakRSSMB())
		e.set("bench.machine_slowdown_pct", (e.meter.meanSlowdown()-1)*100)
		decls = perLayer
		if err := e.tr.write(filepath.Join(e.cfg.outDir, "trace-"+e.workload+".jsonl")); err != nil {
			return nil, err
		}
	}
	res := &result{Traced: e.tr != nil, Slices: e.slices, Metrics: map[string]metric{}}
	for _, d := range decls {
		v, measured := e.metrics[d.name]
		if !measured && e.tr == nil {
			e.fail("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			e.fail("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range e.metrics {
		// End-to-end values measured during a traced run (and the
		// reverse) are simply not part of this result.
		if _, _, ok := findDecl(name); !ok {
			e.fail("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	res.Attempted, res.Failed, res.Failures = e.attempted, e.failed, e.failures
	res.Correct = e.failed == 0
	return res, nil
}

// ---- spans ----

// span is one timed call into a layer. Spans of one request, round or
// program run share an op id; parent is the id of the span that caused
// this one (0 for an op's root).
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int64  `json:"op"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced slices pay one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	meter    *speedometer
	nextID   atomic.Int64
	nextOp   atomic.Int64

	mu    sync.Mutex
	spans []span
}

// liveSpan is a started span; end records it.
type liveSpan struct {
	tr     *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// start opens a span. parent may be the zero liveSpan for an op's root.
func (t *tracer) start(op int64, parent liveSpan, name string) liveSpan {
	if t == nil {
		return liveSpan{}
	}
	return liveSpan{tr: t, id: t.nextID.Add(1), parent: parent.id, op: op, name: name, start: time.Now()}
}

// root opens a new op and its root span.
func (t *tracer) root(name string) liveSpan {
	if t == nil {
		return liveSpan{}
	}
	return t.start(t.nextOp.Add(1), liveSpan{}, name)
}

// child opens a span under s in the same op.
func (s liveSpan) child(name string) liveSpan {
	return s.tr.start(s.op, s, name)
}

func (s liveSpan) end() {
	if s.tr == nil {
		return
	}
	end := time.Now()
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: s.id, Parent: s.parent, Name: s.name, Workload: t.workload, Op: s.op,
		StartNs: s.start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// durations returns the duration in nanoseconds of every span with the
// given name, scaled to the nominal machine speed like every other time
// the benchmark reports (the trace file keeps the times as measured).
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			from, to := t.t0.Add(time.Duration(s.StartNs)), t.t0.Add(time.Duration(s.EndNs))
			out = append(out, float64(t.meter.nominal(from, to)))
		}
	}
	return out
}

// glueShare is the share of root-span time that no child span covers:
// the benchmark's own glue plus whatever the layers do between the calls
// that are timed. Children of one parent never overlap here (each op runs
// on one goroutine), so coverage is the sum of their durations.
func (t *tracer) glueShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int64]int64{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			covered[p] += t.spans[i].EndNs - t.spans[i].StartNs
		}
	}
	var total, glue int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			continue
		}
		d := s.EndNs - s.StartNs
		total += d
		if c := covered[s.ID]; c < d {
			glue += d - c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(glue) / float64(total)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- estimators ----

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's acceptance check uses, so spread_pct here and there agree.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spreadPct is the inter-quartile distance as a percentage of the median.
func spreadPct(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2 * 100
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// typicalHigh and typicalLow pick the reported value from the windows of
// a daemon workload: the upper quartile of rates, the lower quartile of
// times. With clients, server and speedometer sharing two CPUs,
// interference there is heavy and one-sided — it only ever adds time — so
// the better windows are the less disturbed ones; on recorded runs the
// quartile spread by 5–12 % between runs, the median window by 10–15 %.
// The single best window is also the one whose speed correction erred
// most in its favour, and wandered as much as the median.
func typicalHigh(xs []float64) float64 { return percentile(xs, 0.75) }

func typicalLow(xs []float64) float64 { return percentile(xs, 0.25) }

func sumOf(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nsToMs(ns float64) float64 { return ns / 1e6 }

func nsToUs(ns float64) float64 { return ns / 1e3 }

// ---- provenance ----

// provenance says what produced a result file, so a stranger can
// reproduce it.
type provenance struct {
	Commit     string         `json:"commit"`
	Dirty      bool           `json:"dirty"`
	CommitFrom string         `json:"commit_from"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Smoke      bool           `json:"smoke"`
	Traced     bool           `json:"traced"`
	Slices     map[string]int `json:"slices"`
	Start      string         `json:"start"`
	WallS      float64        `json:"wall_s"`
}

func newProvenance(cfg config, file *resultFile, start time.Time) provenance {
	p := provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Smoke:      cfg.smoke,
		Traced:     cfg.trace,
		Slices:     map[string]int{},
		Start:      start.UTC().Format(time.RFC3339),
		WallS:      time.Since(start).Seconds(),
	}
	for name, res := range file.Workloads {
		p.Slices[name] = res.Slices
	}
	p.Commit, p.Dirty, p.CommitFrom = commitOf()
	return p
}

// commitOf names the code that ran: git when the benchmark runs inside a
// work tree, else the VCS stamp of the binary, else a reason — never a
// bare "unknown".
func commitOf() (commit string, dirty bool, from string) {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "status", "--porcelain").Output()
		return commit, err != nil || len(strings.TrimSpace(string(st))) > 0, "git rev-parse HEAD"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if commit != "" {
			return commit, dirty, "debug.ReadBuildInfo"
		}
	}
	return "none: not a git work tree and the binary carries no VCS stamp", true, "none"
}

// peakRSSMB reads the process's high-water resident set from procfs; 0
// where procfs is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
