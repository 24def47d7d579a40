package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/daemon"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

// fleetClients is the closed-loop client count: at most nproc, and the
// box has two.
const fleetClients = 2

// pushersPerClient times fleetClients is how many pusher ids the pushes
// rotate over: every cbsvm mints its own, so the daemon's ledger is wide.
const pushersPerClient = 32

// cbsd is one full in-process root daemon on a loopback port, with a
// state dir like a durable production daemon.
type cbsd struct {
	dir    string
	url    string
	cancel context.CancelFunc
	done   chan error
	http   *http.Client
	api    *api.Client
}

// startDaemon brings a daemon up and waits until it serves. checkpointEvery
// is its checkpoint and plan-refresh tick.
func startDaemon(e *env, checkpointEvery time.Duration) (*cbsd, error) {
	dir, err := os.MkdirTemp(e.cfg.outDir, "state-"+e.workload+"-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	d := &cbsd{dir: dir, cancel: cancel, done: make(chan error, 1)}
	go func() {
		d.done <- daemon.Run(ctx, daemon.Config{
			Addr:            "127.0.0.1:0",
			Shards:          dcgstore.DefaultShards,
			StateDir:        dir,
			CheckpointEvery: checkpointEvery,
			ReadTimeout:     30 * time.Second,
			WriteTimeout:    60 * time.Second,
			PlanPolicy:      "new-linear",
			Ready:           ready,
		})
	}()
	select {
	case addr := <-ready:
		d.url = "http://" + addr
	case err := <-d.done:
		cancel()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon did not start: %w", err)
	}
	d.http = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetClients},
	}
	// No in-client retries: a request that fails is a failed operation,
	// not one to paper over.
	d.api = &api.Client{BaseURL: d.url, HTTPClient: d.http, Retries: -1}
	return d, nil
}

// stop shuts the daemon down gracefully, waits until it has ended, and
// removes its state dir.
func (d *cbsd) stop() error {
	// Close the clients' connections first: one the transport dialled but
	// never used is not idle to the server, whose graceful shutdown would
	// wait five seconds for it.
	d.http.CloseIdleConnections()
	d.cancel()
	err := <-d.done
	os.RemoveAll(d.dir)
	return err
}

// snapshotOf fetches one build's graph through the daemon's public
// snapshot route (api.Client only wraps the unkeyed form).
func (d *cbsd) snapshotOf(key api.ProgramKey) (*profile.DCG, error) {
	q := url.Values{"program": {key.Program}, "version": {key.Version}}
	resp, err := d.http.Get(d.url + api.PathSnapshot + "?" + q.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s: %s", key, resp.Status)
	}
	return profile.ReadDCG(resp.Body)
}

// payload is one real CBS delta: the graph one VM sampled while running
// one suite program, encoded as it would be pushed.
type payload struct {
	prog  *program
	key   api.ProgramKey
	graph *profile.DCG
	body  []byte
}

// recordPayloads runs every program under CBS at two seeds and keeps the
// sampled graphs.
func recordPayloads(e *env, progs []*program) ([]*payload, error) {
	const seeds = 2
	out := make([]*payload, len(progs)*seeds)
	err := twoAtATime(len(out), func(i int) error {
		p := progs[i/seeds]
		c := profiler.NewCBS(cbsConfig(e.cfg.seed + int64(i%seeds)))
		m := vm.New(p.code)
		m.SetProfiler(c)
		m.SetTimer(timerPeriod)
		if _, err := m.Run(p.size); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		var body bytes.Buffer
		if _, err := c.Graph.WriteTo(&body); err != nil {
			return err
		}
		out[i] = &payload{
			prog: p, key: api.ProgramKey{Program: p.name, Version: p.version},
			graph: c.Graph, body: body.Bytes(),
		}
		return nil
	})
	return out, err
}

// fleetState is what set-up leaves for the measured part.
type fleetState struct {
	d        *cbsd
	progs    []*program
	payloads []*payload
	// warm counts the set-up's one push per payload, which the
	// conservation check must add to what the clients pushed.
	warm []int
}

// setupFleet compiles the suite, records the payloads, starts the daemon
// and lets its lazy work finish: one push per payload, and (for the mixed
// workload) one plan pull per program so every pristine build is compiled.
func setupFleet(e *env, pullPlans bool) (*fleetState, error) {
	progs, err := loadSuite(e, e.programNames(suiteNames), false)
	if err != nil {
		return nil, err
	}
	payloads, err := recordPayloads(e, progs)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(e, time.Second)
	if err != nil {
		return nil, err
	}
	st := &fleetState{d: d, progs: progs, payloads: payloads, warm: make([]int, len(payloads))}
	for i, pl := range payloads {
		resp, err := d.api.PushDeltaKeyed("bench-warm", uint64(i+1), pl.key, pl.body)
		if err != nil || !resp.Applied {
			d.stop()
			return nil, fmt.Errorf("warm-up push %s: applied=%v err=%v", pl.key, resp != nil && resp.Applied, err)
		}
		st.warm[i]++
	}
	if pullPlans {
		for _, p := range progs {
			if _, err := d.api.GetPlanVersion(p.name, p.version, ""); err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up plan pull: %w", err)
			}
		}
	}
	return st, nil
}

// Request kinds a client records.
const (
	kindPush = iota
	kindDup
	kindPull
	kindTop
	kindSnapshot
	kindMetrics
	numKinds
)

var kindSpan = [numKinds]string{"api.push", "api.push", "api.plan_get", "api.top", "api.snapshot", "api.metrics"}

// sample is one completed request as its client saw it.
type sample struct {
	at          time.Duration // completion time since the run began
	rtt         time.Duration
	kind        uint8
	notModified bool
	payload     int32 // pushes: index into payloads
}

// client is one closed-loop fleet member: it waits for each reply before
// sending the next request.
type client struct {
	id      int
	rng     *rand.Rand
	seqs    [pushersPerClient]uint64
	turn    int
	samples []sample
	pushed  []int // fresh pushes acked per payload
	etags   map[string]string

	lastPusher  string
	lastSeq     uint64
	lastPayload int
}

func (c *client) pusherID(i int) string { return fmt.Sprintf("bench-c%d-p%02d", c.id, i) }

// do times one request, recording a span when this slice is traced.
// after, when non-nil, checks the reply once the round trip has been
// timed, inside the same op.
func (c *client) do(e *env, tr *tracer, start time.Time, kind uint8, payload int, what string,
	call func() (notModified bool, ok bool), after func(op liveSpan) bool) {
	op := tr.root("op.request")
	sp := op.child(kindSpan[kind])
	t0 := time.Now()
	notModified, ok := call()
	rtt := time.Since(t0)
	sp.end()
	if ok && after != nil {
		ok = after(op)
	}
	op.end()
	e.check(ok, "%s", what)
	c.samples = append(c.samples, sample{
		at: time.Since(start), rtt: rtt, kind: kind, notModified: notModified, payload: int32(payload),
	})
}

// push sends the next delta, or — one turn in a hundred — re-sends the
// one this client sent last, which the daemon must answer "duplicate".
func (c *client) push(e *env, tr *tracer, st *fleetState, start time.Time, resend bool) *payload {
	if resend && c.lastSeq != 0 {
		pl := st.payloads[c.lastPayload]
		c.do(e, tr, start, kindDup, c.lastPayload, "a re-sent (pusher, seq) was not answered duplicate", func() (bool, bool) {
			resp, err := st.d.api.PushDeltaKeyed(c.lastPusher, c.lastSeq, pl.key, pl.body)
			return false, err == nil && resp.Duplicate && !resp.Applied
		}, nil)
		return pl
	}
	slot := c.turn % pushersPerClient
	c.seqs[slot]++
	idx := c.rng.Intn(len(st.payloads))
	pl := st.payloads[idx]
	c.lastPusher, c.lastSeq, c.lastPayload = c.pusherID(slot), c.seqs[slot], idx
	c.do(e, tr, start, kindPush, idx, "a push was refused or not applied", func() (bool, bool) {
		resp, err := st.d.api.PushDeltaKeyed(c.lastPusher, c.lastSeq, pl.key, pl.body)
		if err != nil || !resp.Applied {
			return false, false
		}
		c.pushed[idx]++
		return false, true
	}, nil)
	return pl
}

// pull asks for pl's program's plan with the ETag of the last plan this
// client saw, and checks any body it gets.
func (c *client) pull(e *env, tr *tracer, st *fleetState, start time.Time, pl *payload) {
	var res *api.PlanResult
	c.do(e, tr, start, kindPull, 0, "a plan body did not decode or carries the wrong build", func() (bool, bool) {
		var err error
		res, err = st.d.api.GetPlanVersion(pl.key.Program, pl.key.Version, c.etags[pl.key.Program])
		return err == nil && res.NotModified, err == nil
	}, func(op liveSpan) bool {
		if res.NotModified {
			return true
		}
		sp := op.child("plan.decode")
		got, err := plan.ReadPlan(bytes.NewReader(res.Body))
		sp.end()
		c.etags[pl.key.Program] = res.ETag
		return err == nil && got.Version == pl.key.Version && got.Program == pl.key.Program
	})
}

// read issues one of the three operator reads.
func (c *client) read(e *env, tr *tracer, st *fleetState, start time.Time, which int) {
	switch which % 3 {
	case 0:
		c.do(e, tr, start, kindTop, 0, "top(20) failed", func() (bool, bool) {
			top, err := st.d.api.Top(20)
			return false, err == nil && len(top.Edges) > 0
		}, nil)
	case 1:
		c.do(e, tr, start, kindSnapshot, 0, "snapshot fetch failed", func() (bool, bool) {
			g, err := st.d.api.FetchSnapshot()
			return false, err == nil && g.NumEdges() > 0
		}, nil)
	case 2:
		c.do(e, tr, start, kindMetrics, 0, "metrics fetch failed", func() (bool, bool) {
			m, err := st.d.api.Metrics()
			return false, err == nil && m.Ingests > 0
		}, nil)
	}
}

// windowing cuts a run into equal windows; odd windows are the traced
// ones in a traced run.
type windowing struct {
	n     int
	width time.Duration
}

func (e *env) windows() windowing {
	w := windowing{width: 2 * time.Second}
	if e.cfg.smoke {
		w.width = 150 * time.Millisecond
	}
	w.n = int(e.budget() / w.width)
	if w.n < 1 {
		w.n = 1
	}
	if e.tr != nil && w.n < 2 {
		w.n = 2
	}
	return w
}

func (w windowing) index(at time.Duration) int { return int(at / w.width) }

// runClients drives the closed loop for the whole run and returns the
// clients with their samples and when the run began.
func runClients(e *env, st *fleetState, w windowing, mixed bool) ([]*client, time.Time) {
	clients := make([]*client, fleetClients)
	start := time.Now()
	total := time.Duration(w.n) * w.width
	var wg sync.WaitGroup
	for i := range clients {
		c := &client{
			id: i, rng: rand.New(rand.NewSource(e.cfg.seed*int64(fleetClients) + int64(i))),
			pushed: make([]int, len(st.payloads)), etags: map[string]string{},
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				at := time.Since(start)
				if at >= total {
					return
				}
				tr := (*tracer)(nil)
				if w.index(at)%2 == 1 {
					tr = e.tr
				}
				c.turn++
				pl := c.push(e, tr, st, start, !mixed && c.turn%100 == 0)
				if mixed {
					c.pull(e, tr, st, start, pl)
					if c.turn%8 == 0 {
						c.read(e, tr, st, start, c.turn/8)
					}
				}
			}
		}()
	}
	wg.Wait()
	return clients, start
}

// checkConservation is the exactly-once gate: for every build, the
// daemon's graph must equal the sum of the distinct deltas acknowledged
// for it, edge by edge.
func checkConservation(e *env, st *fleetState, clients []*client) {
	want := map[api.ProgramKey]*profile.DCG{}
	for i, pl := range st.payloads {
		n := st.warm[i]
		for _, c := range clients {
			n += c.pushed[i]
		}
		g := want[pl.key]
		if g == nil {
			g = profile.NewDCG()
			want[pl.key] = g
		}
		for _, edge := range pl.graph.Edges() {
			g.AddSample(edge, pl.graph.Weight(edge)*float64(n))
		}
	}
	for key, g := range want {
		got, err := st.d.snapshotOf(key)
		if !e.check(err == nil, "snapshot of %s: %v", key, err) {
			continue
		}
		same := got.NumEdges() == g.NumEdges() && got.Total() == g.Total()
		for _, edge := range g.Edges() {
			same = same && got.Weight(edge) == g.Weight(edge)
		}
		e.check(same, "%s: the daemon holds %d edges / weight %.0f, the acknowledged deltas sum to %d / %.0f",
			key, got.NumEdges(), got.Total(), g.NumEdges(), g.Total())
	}
}

// windowStats summarises one window of samples.
type windowStats struct {
	ops     int
	seconds float64             // the window's length at the nominal machine speed
	rtts    [numKinds][]float64 // milliseconds, at the nominal machine speed
	// Plan pulls again, split by how the daemon answered.
	notModified, modified []float64
}

func bucket(e *env, clients []*client, w windowing, start time.Time) []windowStats {
	out := make([]windowStats, w.n)
	slow := make([]float64, w.n)
	for i := range out {
		from := start.Add(time.Duration(i) * w.width)
		slow[i] = e.meter.slowdown(from, from.Add(w.width))
		out[i].seconds = w.width.Seconds() / slow[i]
	}
	for _, c := range clients {
		for _, s := range c.samples {
			i := w.index(s.at)
			if i >= w.n {
				continue // completed after the last window closed
			}
			rtt := ms(s.rtt) / slow[i]
			out[i].ops++
			out[i].rtts[s.kind] = append(out[i].rtts[s.kind], rtt)
			switch {
			case s.kind == kindPull && s.notModified:
				out[i].notModified = append(out[i].notModified, rtt)
			case s.kind == kindPull:
				out[i].modified = append(out[i].modified, rtt)
			}
		}
	}
	return out
}

// splitWindows returns the windows that ran with tracing off — all of them in
// an untraced run, the even ones in a traced run — and the traced rest.
func splitWindows(e *env, ws []windowStats) (plain, traced []windowStats) {
	for i, w := range ws {
		if e.tr != nil && i%2 == 1 {
			traced = append(traced, w)
		} else {
			plain = append(plain, w)
		}
	}
	return plain, traced
}

func (w windowStats) rate() float64 { return float64(w.ops) / w.seconds }

func (w windowStats) pushes() []float64 {
	return append(append([]float64(nil), w.rtts[kindPush]...), w.rtts[kindDup]...)
}

// across evaluates f on every window.
func across(ws []windowStats, f func(windowStats) float64) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = f(w)
	}
	return out
}

func runFleetIngest(e *env) error { return runFleet(e, false) }

func runFleetMixed(e *env) error { return runFleet(e, true) }

func runFleet(e *env, mixed bool) error {
	st, err := timeSetup(e,
		func() (*fleetState, error) { return setupFleet(e, mixed) },
		func(old *fleetState) { old.d.stop() })
	if err != nil {
		return err
	}
	w := e.windows()
	e.slices = w.n
	clients, start := runClients(e, st, w, mixed)
	checkConservation(e, st, clients)
	metrics, merr := st.d.api.Metrics()
	e.check(merr == nil && metrics.IngestErrors == 0, "daemon metrics: err %v", merr)
	if err := st.d.stop(); err != nil {
		e.fail("daemon shutdown: %v", err)
	}

	plain, traced := splitWindows(e, bucket(e, clients, w, start))
	rates := across(plain, windowStats.rate)
	e.set("throughput", typicalHigh(rates))
	if mixed {
		e.set("latency_ms", typicalLow(across(plain, func(w windowStats) float64 { return percentile(w.rtts[kindPull], 0.50) })))
	} else {
		// The push round trip's median, not its 99th percentile: on this
		// box the tail of a 40 µs request is set by when the hypervisor
		// schedules the woken vCPU, and it wandered by a fifth between
		// runs of the same code. ingest_p99_ms stays a per-layer metric.
		e.set("latency_ms", typicalLow(across(plain, func(w windowStats) float64 { return percentile(w.pushes(), 0.50) })))
	}
	e.set("quality_pct", e.qualityFromChecks())
	if e.tr == nil {
		return nil
	}

	e.set("bench.trace_overhead_pct", (typicalHigh(rates)/typicalHigh(across(traced, windowStats.rate))-1)*100)
	if mixed {
		reportMixed(e, st, plain)
	} else {
		reportIngest(e, st, clients, plain, metrics)
	}
	reportSetupSpans(e)
	e.set("bench.trace_glue_pct", e.tr.glueShare()*100)
	return nil
}

// shadowIngest replays pushes through the public functions the ingest
// handler calls — decode, then the sequenced merge — against a shadow
// store, as child spans of a shadow op. What the handler does inside the
// daemon is not visible from outside; these are the same calls on the
// same bytes. It returns the shadow store family and how many edges it
// decoded.
func shadowIngest(e *env, st *fleetState, clients []*client, limit int) (*dcgstore.Multi, float64) {
	multi := dcgstore.NewMulti(dcgstore.DefaultShards)
	n, edges := 0, 0.0
	for _, c := range clients {
		seqs := map[string]uint64{}
		for _, s := range c.samples {
			if s.kind != kindPush || n >= limit {
				continue
			}
			n++
			pl := st.payloads[s.payload]
			pusher := c.pusherID(n % pushersPerClient)
			seqs[pusher]++
			op := e.tr.root("op.shadow_ingest")
			sp := op.child("profile.decode")
			g, err := profile.DecodeDCGBytes(pl.body)
			sp.end()
			if e.check(err == nil, "shadow decode: %v", err) {
				edges += float64(g.NumEdges())
				sp = op.child("dcgstore.merge")
				multi.For(pl.key).MergeDCGFrom(pusher, seqs[pusher], g)
				sp.end()
			}
			op.end()
		}
	}
	return multi, edges
}

func reportIngest(e *env, st *fleetState, clients []*client, plain []windowStats, metrics *api.MetricsResponse) {
	rates := across(plain, windowStats.rate)
	e.set("ingest_req_per_s", typicalHigh(rates))
	e.set("ingest_p99_ms", typicalLow(across(plain, func(w windowStats) float64 { return percentile(w.pushes(), 0.99) })))
	e.set("ingest.best_req_per_s", stats.Max(rates))
	e.set("ingest.spread_pct", spreadPct(rates))
	rtt := typicalLow(across(plain, func(w windowStats) float64 { return percentile(w.pushes(), 0.50) }))
	e.set("api.push_rtt_p50_ms", rtt)
	var dups, all int
	for _, c := range clients {
		for _, s := range c.samples {
			if s.kind == kindDup {
				dups++
			}
			all++
		}
	}
	e.set("dcgstore.dup_share", float64(dups)/float64(all))

	limit := 4000
	if e.cfg.smoke {
		limit = 200
	}
	multi, decoded := shadowIngest(e, st, clients, limit)
	decodes := e.tr.durations("profile.decode")
	decode, merge := stats.Median(decodes), stats.Median(e.tr.durations("dcgstore.merge"))
	e.set("dcgstore.merge_us_p50", nsToUs(merge))
	e.set("profile.decode_us_per_kedge", nsToUs(sumOf(decodes))/(decoded/1000))
	if metrics != nil && metrics.IngestLat != nil {
		handler := metrics.IngestLat.P50
		e.set("daemon.ingest_handler_p50_ms", handler)
		e.set("daemon.ingest_handler_p99_ms", metrics.IngestLat.P99)
		e.set("daemon.merge_ms_mean", metrics.MergeMsMean)
		e.set("daemon.http_glue_p50_ms", rtt-handler)
		e.set("daemon.handler_glue_p50_ms", handler-nsToMs(decode)-nsToMs(merge))
	}
	reportProfileLayer(e, st)
	reportCheckpoint(e, st, multi)
}

// reportProfileLayer times the profile package's own operations over the
// recorded graphs, per thousand edges.
func reportProfileLayer(e *env, st *fleetState) {
	var edges float64
	var sizes []float64
	acc := profile.NewDCG()
	for _, pl := range st.payloads {
		edges += float64(pl.graph.NumEdges())
		sizes = append(sizes, float64(len(pl.body)))
		op := e.tr.root("op.profile_layer")
		sp := op.child("profile.encode")
		var buf bytes.Buffer
		_, err := pl.graph.WriteTo(&buf)
		sp.end()
		e.check(err == nil && bytes.Equal(buf.Bytes(), pl.body), "%s: re-encoding a delta changed its bytes", pl.key)
		sp = op.child("profile.merge")
		acc.Merge(pl.graph)
		sp.end()
		sp = op.child("profile.delta")
		acc.DeltaSince(pl.graph)
		sp.end()
		sp = op.child("profile.overlap")
		profile.Overlap(acc, pl.graph)
		sp.end()
		op.end()
	}
	perKedge := func(span string) float64 {
		return nsToUs(sumOf(e.tr.durations(span))) / (edges / 1000)
	}
	e.set("profile.encode_us_per_kedge", perKedge("profile.encode"))
	e.set("profile.merge_us_per_kedge", perKedge("profile.merge"))
	e.set("profile.delta_us_per_kedge", perKedge("profile.delta"))
	e.set("profile.overlap_us_per_kedge", perKedge("profile.overlap"))
	e.set("profile.payload_bytes_p50", stats.Median(sizes))
}

// reportCheckpoint times a snapshot, a checkpoint save and a restore of
// the shadow store family.
func reportCheckpoint(e *env, st *fleetState, multi *dcgstore.Multi) {
	for _, key := range multi.Keys() {
		for rep := 0; rep < 5; rep++ {
			op := e.tr.root("op.shadow_snapshot")
			sp := op.child("dcgstore.snapshot")
			multi.Lookup(key).Snapshot()
			sp.end()
			op.end()
		}
	}
	e.set("dcgstore.snapshot_us_p50", nsToUs(stats.Median(e.tr.durations("dcgstore.snapshot"))))

	dir, err := os.MkdirTemp(e.cfg.outDir, "checkpoint-")
	if err != nil {
		e.fail("checkpoint dir: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	op := e.tr.root("op.shadow_checkpoint")
	sp := op.child("dcgstore.checkpoint_save")
	err = dcgstore.SaveMultiCheckpoint(dir, multi)
	sp.end()
	restored := dcgstore.NewMulti(dcgstore.DefaultShards)
	var loaded bool
	if e.check(err == nil, "checkpoint save: %v", err) {
		sp = op.child("dcgstore.checkpoint_restore")
		loaded, err = dcgstore.RestoreMultiCheckpoint(restored, dir)
		sp.end()
	}
	op.end()
	e.check(err == nil && loaded && sameDCG(restored.MergedSnapshot(), multi.MergedSnapshot()),
		"checkpoint restore does not reproduce the store (loaded %v, err %v)", loaded, err)
	var size int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return nil
	})
	e.set("dcgstore.checkpoint_save_ms", nsToMs(stats.Median(e.tr.durations("dcgstore.checkpoint_save"))))
	e.set("dcgstore.checkpoint_restore_ms", nsToMs(stats.Median(e.tr.durations("dcgstore.checkpoint_restore"))))
	e.set("dcgstore.checkpoint_bytes", float64(size))
}

func reportMixed(e *env, st *fleetState, plain []windowStats) {
	// pct is the p-quantile of one kind of request per window, then the
	// typical window.
	pct := func(p float64, pick func(windowStats) []float64) float64 {
		return typicalLow(across(plain, func(w windowStats) float64 { return percentile(pick(w), p) }))
	}
	kind := func(k int) func(windowStats) []float64 {
		return func(w windowStats) []float64 { return w.rtts[k] }
	}
	rates := across(plain, windowStats.rate)
	e.set("mixed_ops_per_s", typicalHigh(rates))
	e.set("mixed.best_ops_per_s", stats.Max(rates))
	e.set("mixed.spread_pct", spreadPct(rates))
	e.set("plan_pull_p50_ms", pct(0.50, kind(kindPull)))
	e.set("mixed.plan_pull_p99_ms", pct(0.99, kind(kindPull)))
	e.set("mixed.push_p50_ms", pct(0.50, kind(kindPush)))
	e.set("mixed.push_p99_ms", pct(0.99, kind(kindPush)))
	e.set("daemon.top_ms_p50", pct(0.50, kind(kindTop)))
	e.set("daemon.snapshot_ms_p50", pct(0.50, kind(kindSnapshot)))
	e.set("daemon.metrics_ms_p50", pct(0.50, kind(kindMetrics)))
	e.set("daemon.plan_304_us_p50", pct(0.50, func(w windowStats) []float64 { return w.notModified })*1000)
	e.set("daemon.plan_200_ms_p50", pct(0.50, func(w windowStats) []float64 { return w.modified }))
	e.set("daemon.plan_304_share", stats.Median(across(plain, func(w windowStats) float64 {
		if len(w.rtts[kindPull]) == 0 {
			return 0
		}
		return float64(len(w.notModified)) / float64(len(w.rtts[kindPull]))
	})))
	shadowPlans(e, st)
}

// shadowPlans replays what a plan pull after a push makes the daemon do —
// snapshot the build's store, compile, encode — through the same public
// functions, and decodes the result as a puller would. Each build's store
// grows one recorded delta at a time, so the compiler sees the graphs the
// daemon saw.
func shadowPlans(e *env, st *fleetState) {
	multi := dcgstore.NewMulti(dcgstore.DefaultShards)
	prior := map[api.ProgramKey]*plan.Plan{}
	var javac, sizes []float64
	rounds := 4
	if e.cfg.smoke {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		for i, pl := range st.payloads {
			store := multi.For(pl.key)
			store.MergeDCGFrom("bench-shadow", uint64(round*len(st.payloads)+i+1), pl.graph)
			op := e.tr.root("op.shadow_plan")
			sp := op.child("dcgstore.snapshot")
			snap := store.Snapshot()
			sp.end()
			sp = op.child("plan.compile")
			t0 := time.Now()
			p, err := plan.Compile(pl.key.Program, pl.prog.code, snap, plan.DefaultParams(), prior[pl.key])
			d := e.meter.nominal(t0, time.Now())
			sp.end()
			if !e.check(err == nil, "shadow plan compile %s: %v", pl.key, err) {
				op.end()
				continue
			}
			prior[pl.key] = p
			if pl.key.Program == "javac" {
				javac = append(javac, ms(d))
			}
			sp = op.child("plan.encode")
			body := p.Encode()
			sp.end()
			sp = op.child("plan.decode")
			got, err := plan.ReadPlan(bytes.NewReader(body))
			sp.end()
			op.end()
			e.check(err == nil && got.Equal(p), "shadow plan %s does not round-trip: %v", pl.key, err)
			sizes = append(sizes, float64(len(body)))
		}
	}
	e.set("dcgstore.snapshot_us_p50", nsToUs(stats.Median(e.tr.durations("dcgstore.snapshot"))))
	e.set("plan.compile_ms_p50", nsToMs(stats.Median(e.tr.durations("plan.compile"))))
	e.set("plan.compile_ms.javac", stats.Median(javac))
	e.set("plan.encode_us_p50", nsToUs(stats.Median(e.tr.durations("plan.encode"))))
	e.set("plan.decode_us_p50", nsToUs(stats.Median(e.tr.durations("plan.decode"))))
	e.set("plan.bytes_p50", stats.Median(sizes))
}
