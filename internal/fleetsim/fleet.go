package fleetsim

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/daemon"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/mincover"
	"gocbs/internal/mj"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/vm"
)

// Run is the one scenario driver. What differs between scenarios is
// data it is handed, not code:
//
//	scenario         topology            schedule events            verdicts
//	flat (default)   one daemon          restart the daemon         the four base checkers
//	tree (Leaves>0)  root + N leaves,    flush leaves every round;  the four base checkers,
//	                 pushers and         restart one leaf (round-   conservation read at the
//	                 pullers round-robin robin), unflushed          root, fleet-wide
//	upgrade          one daemon, two     flip half the pushers to   conservation and plan
//	(Upgrade)        builds keyed by     build 2 at Rounds/2;       epochs per build (@ver),
//	                 (program, version)  restarts only after it     restart, divergence, plus
//	                                                                carry-forward, scoping,
//	                                                                refusal
//
// Determinism: pusher/puller traffic goes through per-actor chaos
// transports addressing placeholder hosts that resolve to whichever
// incarnation of a daemon is live. Leaf→root forwarding is driven by
// the harness — leaves run with the periodic forward loop effectively
// off and get /v1/flush'd at round boundaries over the direct
// (chaos-free) client — so the upstream sequence streams advance at
// seed-determined points, not timer-determined ones. The leaf→root
// retry path itself is proven under fire by dcgstore's forwarder
// tests; what the tree adds is the end-to-end composition: pusher
// exactly-once into the leaf, leaf exactly-once into the root, leaf
// kill/restart in the middle.

// Config parameterizes one fleet soak.
type Config struct {
	// VMs is the number of pusher VMs; Pullers the number of
	// plan-pulling VMs running concurrently (per build, in an upgrade).
	VMs     int
	Pullers int
	// Rounds is how many push rounds each pusher runs;, each round is
	// ItersPerRound benchmark iterations followed by one delta push.
	// Pullers run the same number of rounds, polling every round.
	Rounds        int
	ItersPerRound int
	// Leaves, when positive, runs the soak against a federated tree —
	// one root plus this many leaf daemons, with pusher k pushing to and
	// puller k polling the plan relay of leaf k mod Leaves. 0 keeps the
	// single-daemon topology.
	Leaves int
	// Seed drives every random decision in the run: the fault schedule
	// and the pushers' CBS sampling.
	Seed int64
	// Faults selects which fault kinds to inject (nil or empty = none).
	Faults FaultSet
	// Restarts is how many daemon kill/restart cycles to schedule at
	// round boundaries, evenly spread across the run (in an upgrade,
	// across the rounds after the flip, so both builds are live). Each
	// needs its own boundary: more than Rounds-1 is an error.
	Restarts int
	// Upgrade makes the run a rolling upgrade: the fleet starts on one
	// build of Program, stamping its pushes (Program, version); before
	// round Rounds/2 the second half of the pushers is retired and
	// replaced by fresh VMs on a modified build (see upgradeProgram),
	// whose manifest registration carries the still-valid profile mass
	// forward, and a second set of pullers plus a misrouted refusal
	// probe start. Single daemon only.
	Upgrade bool
	// Program names the benchmark the whole fleet runs (default
	// "compress").
	Program string
	// GeneratedWorkloads switches the fleet from the named benchmark to
	// a program produced by mj.GenerateWorkload(GenSeed, GenSize,
	// GenShape): chaos soaks then run on novel call graphs instead of
	// the fixed suite. Program defaults to a descriptive synthetic name.
	GeneratedWorkloads bool
	GenSeed            int64
	GenSize            int
	GenShape           string
	// Profilers assigns profile sources round-robin across the pusher
	// fleet: pusher k uses Profilers[k%len(Profilers)]. Valid kinds are
	// "cbs", "exhaustive", and "mincover"; nil or empty keeps the
	// all-CBS fleet. Mixed fleets exercise the A/B deployment story:
	// every source feeds the same push protocol and the conservation
	// invariant is checked across all of them together.
	Profilers []string
	// StateDir is the daemons' checkpoint directory; empty means a
	// fresh temporary directory, removed when the run ends.
	StateDir string
	// MaxLatency bounds injected latency faults (default 2ms).
	MaxLatency time.Duration

	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.VMs <= 0 {
		c.VMs = 4
	}
	if c.Pullers <= 0 {
		c.Pullers = 2
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.ItersPerRound <= 0 {
		c.ItersPerRound = 2
	}
	if c.Restarts < 0 {
		c.Restarts = 0
	}
	if c.GeneratedWorkloads {
		if c.GenSize <= 0 {
			c.GenSize = 3
		}
		if c.Program == "" {
			shape := c.GenShape
			if shape == "" {
				shape = "default"
			}
			c.Program = fmt.Sprintf("gen-%s-%d", shape, c.GenSeed)
		}
	}
	if c.Program == "" {
		c.Program = "compress"
	}
	if c.Faults == nil {
		c.Faults = make(FaultSet)
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// flipRound is the round before which an upgrade run flips (0 = the
// run is not an upgrade).
func (c *Config) flipRound() int {
	if !c.Upgrade {
		return 0
	}
	return c.Rounds / 2
}

// validate rejects the configurations the driver would otherwise have
// to half-support or silently bend.
func (c *Config) validate() error {
	if c.Upgrade && c.Leaves > 0 {
		return fmt.Errorf("fleetsim: Upgrade with Leaves=%d: the rolling upgrade runs against a single daemon only", c.Leaves)
	}
	if c.Upgrade && c.Rounds < 4 {
		return fmt.Errorf("fleetsim: Upgrade with Rounds=%d: needs at least 4, two on either side of the flip", c.Rounds)
	}
	if slots := c.Rounds - c.flipRound() - 1; c.Restarts > slots {
		return fmt.Errorf("fleetsim: Restarts=%d does not fit Rounds=%d: a restart needs a round boundary inside the run (after the flip, in an upgrade) and there are %d",
			c.Restarts, c.Rounds, slots)
	}
	return nil
}

// prepare compiles the fleet's program — the generated workload in
// GeneratedWorkloads mode, the named benchmark otherwise — prepares it
// with inline.JITOnly, and returns the setup size every actor uses with
// it. The result is the pristine build: actors run clones.
func (c *Config) prepare() (*bytecode.Program, int64, error) {
	var prog *bytecode.Program
	var size int64
	if c.GeneratedWorkloads {
		var err error
		prog, err = mj.Compile(mj.GenerateWorkload(c.GenSeed, c.GenSize, c.GenShape))
		if err != nil {
			return nil, 0, fmt.Errorf("generated workload (seed %d size %d shape %q): %w",
				c.GenSeed, c.GenSize, c.GenShape, err)
		}
		size = int64(11 + c.GenSize*7)
	} else {
		b := bench.ByName(c.Program)
		if b == nil {
			return nil, 0, fmt.Errorf("no benchmark named %q", c.Program)
		}
		var err error
		if prog, err = b.Compile(); err != nil {
			return nil, 0, err
		}
		size = b.SizeFor("small")
	}
	if err := inline.JITOnly(prog); err != nil {
		return nil, 0, err
	}
	return prog, size, nil
}

// pusherActor is one profiled VM streaming profile deltas to the
// daemon through its own fault-injecting transport. Actors advance in
// lockstep rounds so daemon restarts happen at known-quiesced points.
// The profile source behind graph is per-actor (CBS, exhaustive, or
// mincover — see Config.Profilers); the push protocol only ever sees
// the live DCG, so mixing sources changes nothing downstream.
type pusherActor struct {
	name  string
	graph *profile.DCG
	// finalize, when non-nil, completes the profile after the last
	// iteration and before the final drain (mincover's count
	// recovery). Must be idempotent.
	finalize func() error
	m        *vm.VM
	iter     *bytecode.Method
	push     *dcgstore.DeltaPusher

	pushErrs int
}

func (a *pusherActor) round(iters int) error {
	for i := 0; i < iters; i++ {
		if _, err := a.m.Call(a.iter); err != nil {
			return fmt.Errorf("%s: iter: %w", a.name, err)
		}
	}
	if err := a.push.Push(a.graph); err != nil {
		// Expected under chaos: the increment stays pending, frozen with
		// its stamp, and the next round's push re-sends it first.
		a.pushErrs++
	}
	return nil
}

// drain pushes until nothing is pending. Callers disable chaos first;
// the retry cap only guards against a genuinely broken daemon.
func (a *pusherActor) drain() error {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		lastErr = a.push.Push(a.graph)
		if lastErr == nil && a.push.Pending() == 0 {
			return nil
		}
	}
	return fmt.Errorf("%s: %d increment(s) still pending after drain: %v", a.name, a.push.Pending(), lastErr)
}

// finish ends a pusher's run: profile sources that derive counts after
// the last iteration (mincover's recovery) finalize, then everything
// captured is drained so the conservation check can read the store.
func (a *pusherActor) finish() error {
	if a.finalize != nil {
		if err := a.finalize(); err != nil {
			return fmt.Errorf("%s: finalize: %w", a.name, err)
		}
	}
	return a.drain()
}

// newPusherProfiler builds one pusher's profile source. Valid kinds are
// "cbs" (the default sampling profiler), "exhaustive" (instrumented
// per-call counters), and "mincover" (minimum-coverage probes with
// count recovery at finalize). The returned finalize is nil when the
// source needs no completion step.
func newPusherProfiler(kind string, seed int64, prog *bytecode.Program) (vm.Profiler, *profile.DCG, func() error, error) {
	switch kind {
	case "", "cbs":
		pc := profiler.DefaultCBS(profiler.FlavourRVM)
		pc.Seed = seed
		cbs := profiler.NewCBS(pc)
		return cbs, cbs.Graph, nil, nil
	case "exhaustive":
		e := profiler.NewInstrumented()
		return e, e.Graph, nil, nil
	case "mincover":
		mc := mincover.New(prog)
		return mc, mc.Graph, mc.Finalize, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown profile source %q (want cbs, exhaustive, or mincover)", kind)
	}
}

// node is one daemon of the topology: its fixed configuration and
// placeholder host, plus the live incarnation while it is up.
type node struct {
	name string
	host string
	cfg  daemon.Config

	addr   string // live listen address, "" while down
	cancel context.CancelFunc
	done   chan error
}

// build is one version of the fleet's program and everything the run
// keeps per version. A run has one build, or two in an upgrade.
type build struct {
	// prog is the pristine build; it is never run, every actor clones it.
	prog *bytecode.Program
	// key stamps this build's pushes and scopes its queries. Zero in
	// single-build runs: unkeyed pushes into the default substore and
	// unversioned /snapshot and /plan reads, a fleet that does not say
	// what it runs.
	key                api.ProgramKey
	snapPath, planPath string
	// suffix distinguishes the second build's actor names.
	suffix string

	planCk *planChecker
	// pushers is every pusher that ever ran this build, retired ones
	// included: the store owes all of their acknowledged deltas.
	pushers []*pusherActor
	// carried is the graph manifest registration carried forward into
	// this build's substore, the baseline conservation builds on.
	carried     *profile.DCG
	carriedResp *api.ManifestResponse
}

func newBuild(program string, prog *bytecode.Program, keyed bool, suffix string) *build {
	b := &build{
		prog: prog, suffix: suffix, planCk: newPlanChecker(),
		snapPath: api.PathSnapshot, planPath: api.PathPlan + "?program=" + program,
	}
	if keyed {
		b.key = api.ProgramKey{Program: program, Version: prog.Version()}
		b.snapPath += "?program=" + program + "&version=" + b.key.Version
		b.planPath += "&version=" + b.key.Version
	}
	return b
}

// tag scopes a base verdict's name to this build when the run has more
// than one.
func (b *build) tag(v Verdict) Verdict {
	if !b.key.IsZero() {
		v.Name += "@" + b.key.Version[:8]
	}
	return v
}

// pullerRun is one plan-pulling VM's result, complete once the fleet's
// puller WaitGroup has been waited on.
type pullerRun struct {
	name string
	st   puller.Stats
	err  error
	done chan struct{} // closed when the VM has run its last round
}

// fleet is the per-run state Run threads through its phases.
type fleet struct {
	cfg   Config
	chaos *chaos
	// direct bypasses chaos for capture/verification traffic.
	direct *http.Client
	size   int64

	// root holds the aggregate every verdict reads; leaves (none in a
	// single-daemon run) forward into it. front is the tier the actors
	// address and the restart schedule kills: the leaves, or the root
	// when there are none. Actor k of a kind talks to front[k%len(front)]
	// (production routes nothing: a cbsvm pushes to the one URL it is
	// given). The root of a tree never restarts (leaf restarts are the
	// interesting failure; the single-daemon run already covers
	// aggregator restarts).
	root   *node
	leaves []*node
	front  []*node

	// builds is fixed before the first daemon starts (the daemons'
	// program resolver reads it); live is the prefix launched so far.
	builds []*build
	live   []*build
	active []*pusherActor

	pullers     sync.WaitGroup
	pulls       []*pullerRun
	crossServed atomic.Int64
	restartCk   restartChecker
	// probe is the upgrade's refusal probe. Its outcome stays out of
	// pulls: its job is to fail loudly, so it must not satisfy the
	// divergence checker's definition of a healthy puller.
	probe *pullerRun
}

// resolve is every root daemon's ResolveProgram hook: the fleet, not a
// daemon incarnation, owns the builds, so they survive restarts, and
// generated workloads (not in the benchmark registry) and mid-upgrade
// builds resolve like any other. An unknown version gets the first
// build; the plan service compares content hashes and refuses it.
func (f *fleet) resolve(name, version string) (*bytecode.Program, error) {
	if name != f.cfg.Program {
		return nil, fmt.Errorf("%w: fleet runs %q, not %q", plan.ErrUnknownProgram, f.cfg.Program, name)
	}
	for _, b := range f.builds {
		if b.key.Version == version {
			return b.prog.Clone(), nil
		}
	}
	return f.builds[0].prog.Clone(), nil
}

// startNode brings up a fresh incarnation of n over its state dir and
// routes its placeholder host there.
func (f *fleet) startNode(n *node) error {
	ready := make(chan string, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	dc := n.cfg
	dc.Ready = ready
	go func() { done <- daemon.Run(ctx, dc) }()
	select {
	case addr := <-ready:
		n.addr, n.cancel, n.done = addr, cancel, done
		f.chaos.router.set(n.host, addr)
		return nil
	case err := <-done:
		cancel()
		return fmt.Errorf("%s failed to start: %w", n.name, err)
	case <-time.After(30 * time.Second):
		cancel()
		return fmt.Errorf("%s did not become ready", n.name)
	}
}

// stopNode cancels the daemon's context — the same code path a SIGTERM
// takes in production (cmd/cbsd uses signal.NotifyContext) — and waits
// for the graceful shutdown: requests drain, a leaf runs its final
// upstream flush, and the final checkpoint is written.
func (f *fleet) stopNode(n *node) error {
	f.chaos.router.set(n.host, "")
	n.cancel()
	n.addr = ""
	return <-n.done
}

// get fetches path directly (no chaos) from n's live incarnation.
func (f *fleet) get(n *node, path string) ([]byte, error) {
	resp, err := f.direct.Get("http://" + n.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, b)
	}
	return b, nil
}

func (f *fleet) getDCG(n *node, path string) (*profile.DCG, error) {
	raw, err := f.get(n, path)
	if err != nil {
		return nil, err
	}
	return profile.DecodeDCGBytes(raw)
}

// flush drains every leaf's accumulated delta into the root through
// /v1/flush on the direct client, skipping except (nil = none). A
// single-daemon run has no leaves and nothing to flush.
func (f *fleet) flush(except *node) error {
	for _, n := range f.leaves {
		if n == except {
			continue
		}
		c := api.Client{BaseURL: "http://" + n.addr, HTTPClient: f.direct, Retries: -1}
		if _, err := c.Flush(); err != nil {
			return fmt.Errorf("%s: %w", n.name, err)
		}
	}
	return nil
}

// newPusher builds one pusher VM: a clone of prog, a profile source
// with its own seed, and a DeltaPusher under a fixed, name-derived
// identity (deterministic harness; production uses random IDs).
func (f *fleet) newPusher(name string, prog *bytecode.Program, key api.ProgramKey, kind string, seed int64, baseURL string) (*pusherActor, error) {
	p := prog.Clone()
	prof, graph, finalize, err := newPusherProfiler(kind, seed, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m := vm.New(p)
	m.SetProfiler(prof)
	m.SetTimer(50_000)
	iter, err := bench.Setup(m, f.size)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", name, err)
	}
	client := &dcgstore.Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Transport: f.chaos.transportFor(name, "push"), Timeout: 10 * time.Second},
		Key:        key,
		// Keep retry backoff tiny: chaos makes retries common and the
		// soak's wall clock should measure the system, not sleeps.
		Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
	}
	return &pusherActor{
		name:     name,
		graph:    graph,
		finalize: finalize,
		m:        m,
		iter:     iter,
		push:     dcgstore.NewDeltaPusherWithID(client, name),
	}, nil
}

// startPuller launches one plan-pulling VM on a clone of prog. Pullers
// free-run against their transport for their whole span; they are
// built to tolerate a daemon that is down or lying.
func (f *fleet) startPuller(name string, prog *bytecode.Program, rounds int, baseURL string, rt http.RoundTripper, observe func(*plan.Plan, bool)) *pullerRun {
	pc := plan.NewClient(baseURL)
	pc.SetHTTPClient(&http.Client{Transport: rt, Timeout: 10 * time.Second})
	pristine := prog.Clone()
	run := &pullerRun{name: name, done: make(chan struct{})}
	f.pullers.Add(1)
	go func() {
		defer f.pullers.Done()
		defer close(run.done)
		run.st, run.err = puller.Run(pristine, puller.Options{
			Program: f.cfg.Program,
			Size:    f.size,
			Rounds:  rounds,
			Every:   1,
			Iters:   1,
			Client:  pc,
			Observe: observe,
			Logf:    f.cfg.Logf,
		})
	}()
	return run
}

// launch brings build b live: its manifest registers (keyed builds
// only; a successor's registration is where carry-forward fires),
// pushers lo..hi-1 start on it with seeds seed+k, and its pullers
// start for the given rounds; both spread round-robin over the front
// tier.
func (f *fleet) launch(b *build, lo, hi int, seed int64, rounds int) error {
	cfg := &f.cfg
	if !b.key.IsZero() {
		var err error
		b.carriedResp, err = dcgstore.NewClient("http://" + f.root.addr).RegisterManifest(b.prog.BuildManifest(cfg.Program))
		if err != nil {
			return fmt.Errorf("register manifest %s: %w", b.key, err)
		}
		// Right now the substore holds exactly the carried-forward edges.
		if b.carried, err = f.getDCG(f.root, b.snapPath); err != nil {
			return fmt.Errorf("carried baseline %s: %w", b.key, err)
		}
	}
	for k := lo; k < hi; k++ {
		name := fmt.Sprintf("pusher-%03d%s", k, b.suffix)
		kind := ""
		if len(cfg.Profilers) > 0 {
			kind = cfg.Profilers[k%len(cfg.Profilers)]
		}
		a, err := f.newPusher(name, b.prog, b.key, kind, seed+int64(k), "http://"+f.front[k%len(f.front)].host)
		if err != nil {
			return err
		}
		b.pushers = append(b.pushers, a)
		f.active = append(f.active, a)
	}
	for k := 0; k < cfg.Pullers; k++ {
		name := fmt.Sprintf("puller-%02d%s", k, b.suffix)
		f.pulls = append(f.pulls, f.startPuller(name, b.prog, rounds,
			"http://"+f.front[k%len(f.front)].host, f.chaos.transportFor(name, "pull"),
			func(p *plan.Plan, swapped bool) {
				// A plan stamped with any version other than the one its
				// puller demanded is a scoping violation, whatever its
				// epoch says.
				if !b.key.IsZero() && p.Version != b.key.Version {
					f.crossServed.Add(1)
				}
				b.planCk.Observe(name, p, swapped)
			}))
	}
	f.live = append(f.live, b)
	return nil
}

// quiesce suspends fault effects (draws continue — see chaos.go) and
// drains every active pusher, so the acknowledged graphs and the
// stores agree. The caller re-enables chaos when its event is done.
func (f *fleet) quiesce() error {
	f.chaos.enabled.Store(false)
	for _, a := range f.active {
		if err := a.drain(); err != nil {
			return err
		}
	}
	return nil
}

// capture reads each live build's /snapshot and /plan from n.
func (f *fleet) capture(n *node, when string) (snaps, plans [][]byte, err error) {
	for _, b := range f.live {
		s, err := f.get(n, b.snapPath)
		if err != nil {
			return nil, nil, fmt.Errorf("%s snapshot: %w", when, err)
		}
		p, err := f.get(n, b.planPath)
		if err != nil {
			return nil, nil, fmt.Errorf("%s plan: %w", when, err)
		}
		snaps, plans = append(snaps, s), append(plans, p)
	}
	return snaps, plans, nil
}

// restart is the kill/restart cycle at a quiesced round boundary:
// capture, kill, restart over the same state dir, recapture. Each live
// build's externally visible state must survive independently. A leaf
// victim is killed with its latest round UNFLUSHED: its pushers have
// drained into it, but the increment has not gone upstream, so the
// graceful shutdown's final flush (or, had this been a hard crash, the
// persisted write-ahead capture replayed on restart) is what keeps the
// fleet-wide conservation equality intact.
func (f *fleet) restart(n int, victim *node) error {
	if err := f.quiesce(); err != nil {
		return err
	}
	if err := f.flush(victim); err != nil {
		return err
	}
	snapBefore, planBefore, err := f.capture(victim, "pre-restart")
	if err != nil {
		return err
	}
	// The refusal probe free-runs from the flip with a poll per round,
	// and its verdict needs one of them answered: a poll refused by the
	// closed port is over in microseconds, so on a loaded box it can
	// spend them all inside this window. It ends before the daemon goes.
	if f.probe != nil {
		<-f.probe.done
	}
	if err := f.stopNode(victim); err != nil {
		return fmt.Errorf("%s shutdown (restart %d): %w", victim.name, n, err)
	}
	if err := f.startNode(victim); err != nil {
		return fmt.Errorf("restart %d: %w", n, err)
	}
	snapAfter, planAfter, err := f.capture(victim, "post-restart")
	if err != nil {
		return err
	}
	for i := range f.live {
		f.restartCk.Record(n, snapBefore[i], snapAfter[i], planBefore[i], planAfter[i])
	}
	f.chaos.enabled.Store(true)
	return nil
}

// restartRounds spreads restarts evenly over the round boundaries from
// first on; the returned set holds 0-based round indices after which to
// restart. With restarts <= rounds-first-1 (Config.validate) they are
// distinct and none falls after the last round, where a restart would
// verify nothing the final drain doesn't.
func restartRounds(first, rounds, restarts int) map[int]bool {
	set := make(map[int]bool)
	for i := 1; i <= restarts; i++ {
		set[first+i*(rounds-first)/(restarts+1)-1] = true
	}
	return set
}

// Run executes one fleet soak and returns its report. The run is
// deterministic in the sense documented on Deterministic: same Config
// (including Seed) ⇒ same fault schedule, same invariant verdicts,
// same final aggregate graph, same digest.
func Run(cfg Config) (*Report, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	stateDir := cfg.StateDir
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "fleetsim-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}

	prog, size, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	f := &fleet{
		cfg:    cfg,
		chaos:  newChaos(cfg.Seed, cfg.Faults, cfg.MaxLatency),
		direct: &http.Client{Timeout: 10 * time.Second},
		size:   size,
		builds: []*build{newBuild(cfg.Program, prog, cfg.Upgrade, "")},
	}
	defer f.chaos.close()
	if cfg.Upgrade {
		f.builds = append(f.builds, newBuild(cfg.Program, upgradeProgram(prog), true, "-v2"))
		if v1, v2 := f.builds[0].key.Version, f.builds[1].key.Version; v1 == v2 {
			return nil, fmt.Errorf("upgradeProgram did not change the program version (%s)", v1)
		}
	}

	// Topology. Checkpoints and forwarding run on the harness's clock,
	// not timers: the cadences are set far beyond the soak's length.
	base := daemon.Config{
		Addr:            "127.0.0.1:0",
		CheckpointEvery: time.Hour,
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		Logf:            cfg.Logf,
	}
	f.root = &node{name: "daemon", host: PlaceholderHost, cfg: base}
	f.root.cfg.StateDir = stateDir
	if cfg.Leaves > 0 {
		f.root.name = "root"
		f.root.cfg.StateDir = filepath.Join(stateDir, "root")
	}
	f.root.cfg.ResolveProgram = f.resolve
	for i := 0; i < cfg.Leaves; i++ {
		n := &node{name: fmt.Sprintf("leaf-%02d", i), host: LeafHost(i), cfg: base}
		n.cfg.StateDir = filepath.Join(stateDir, n.name)
		n.cfg.UpstreamID = n.name
		n.cfg.SelfURL = "http://" + n.host
		n.cfg.ForwardEvery = time.Hour
		f.leaves = append(f.leaves, n)
	}
	defer func() {
		// Leaves first: their shutdown flushes into the root.
		for _, n := range append(f.leaves[:len(f.leaves):len(f.leaves)], f.root) {
			if n.addr != "" {
				f.stopNode(n)
			}
		}
	}()
	for _, n := range append([]*node{f.root}, f.leaves...) {
		if n != f.root {
			n.cfg.Upstream = "http://" + f.root.addr
		}
		if err := os.MkdirAll(n.cfg.StateDir, 0o755); err != nil {
			return nil, err
		}
		if err := f.startNode(n); err != nil {
			return nil, err
		}
	}
	f.front = f.leaves
	if len(f.front) == 0 {
		f.front = []*node{f.root}
	}
	cfg.Logf("fleetsim: %s up at %s, %d leaves, state %s", f.root.name, f.root.addr, cfg.Leaves, stateDir)

	if err := f.launch(f.builds[0], 0, cfg.VMs, cfg.Seed, cfg.Rounds); err != nil {
		return nil, err
	}
	cfg.Logf("fleetsim: actors ready")

	// The main soak loop: lockstep pusher rounds, with the schedule's
	// events — the upgrade flip, kill/restart cycles — at quiesced
	// round boundaries.
	flip := cfg.flipRound()
	restarts := restartRounds(flip, cfg.Rounds, cfg.Restarts)
	restartsDone := 0
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		if cfg.Upgrade && r == flip {
			if err := f.flip(f.builds[1], cfg.Rounds-r); err != nil {
				return nil, err
			}
		}

		var wg sync.WaitGroup
		errs := make([]error, len(f.active))
		for i, a := range f.active {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = a.round(cfg.ItersPerRound)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		// Relay this round's growth up the tree.
		if err := f.flush(nil); err != nil {
			return nil, err
		}

		if restarts[r] {
			// Round-robin over the front tier so a multi-restart tree
			// soak exercises each leaf.
			victim := f.front[restartsDone%len(f.front)]
			restartsDone++
			if err := f.restart(restartsDone, victim); err != nil {
				return nil, err
			}
			cfg.Logf("fleetsim: restart %d after round %d: %s back at %s", restartsDone, r+1, victim.name, victim.addr)
		}
	}

	// The final drain: pushers into the front tier, leaves into the
	// root, then read the root. The conservation equality is
	// fleet-wide: the ROOT's aggregate must equal the merge of what
	// every PUSHER knows was acknowledged — in a tree, weight crossed
	// two exactly-once hops to get there.
	f.chaos.enabled.Store(false)
	for _, a := range f.active {
		if err := a.finish(); err != nil {
			return nil, err
		}
	}
	if err := f.flush(nil); err != nil {
		return nil, err
	}
	f.pullers.Wait()
	elapsed := time.Since(start)

	det := Deterministic{
		Seed:          cfg.Seed,
		Program:       cfg.Program,
		VMs:           cfg.VMs,
		Pullers:       cfg.Pullers,
		Leaves:        cfg.Leaves,
		Rounds:        cfg.Rounds,
		ItersPerRound: cfg.ItersPerRound,
		Faults:        cfg.Faults.String(),
		RestartsDone:  restartsDone,
		FlipRound:     flip,
		FaultSchedule: f.chaos.scheduleCopy(),
		FaultCounts:   f.chaos.countsCopy(),
		Invariants:    make(map[string]bool),
	}
	var tm Timing
	var verdicts []Verdict
	for _, b := range f.live {
		snapshot, err := f.getDCG(f.root, b.snapPath)
		if err != nil {
			return nil, fmt.Errorf("final snapshot: %w", err)
		}
		// A build owes every delta acknowledged under it — including
		// those from pushers that later flipped away — on top of the
		// baseline carried into it.
		acked := make(map[string]*profile.DCG, len(b.pushers)+1)
		if b.carried != nil {
			acked["carried"] = b.carried
		}
		for _, a := range b.pushers {
			acked[a.name] = a.push.Acknowledged()
			det.AckedPushes += a.push.Pushes
		}
		det.FinalEdges += snapshot.NumEdges()
		det.FinalWeight += snapshot.Total()
		if cfg.Upgrade {
			det.Versions = append(det.Versions, b.key.Version)
		}
		verdicts = append(verdicts, b.tag(checkConservation(snapshot, acked)), b.tag(b.planCk.Verdict()))
		polls, top := b.planCk.observed()
		tm.PullerPolls += polls
		if top > tm.FinalPlanEpoch {
			tm.FinalPlanEpoch = top
		}
	}
	outcomes := make([]pullerOutcome, len(f.pulls))
	for i, p := range f.pulls {
		outcomes[i] = pullerOutcome{Name: p.name, Killed: p.st.Killed, Rounds: p.st.Rounds, Swaps: p.st.Swaps, Err: p.err}
		tm.PullerSwaps += p.st.Swaps
	}
	// Every requested restart must have been checked, once per build
	// live at the time (restarts fall after the flip: all of them).
	verdicts = append(verdicts, f.restartCk.Verdict(cfg.Restarts*len(f.live)), checkDivergence(outcomes))
	if cfg.Upgrade {
		verdicts = append(verdicts, f.upgradeVerdicts()...)
	}

	for _, v := range verdicts {
		det.Invariants[v.Name] = v.Passed
	}
	tm.DurationMs = float64(elapsed.Nanoseconds()) / 1e6
	tm.IngestPerSec = float64(det.AckedPushes) / elapsed.Seconds()
	tm.PushLatency = f.chaos.pushLatency.Summary()
	tm.PullLatency = f.chaos.pullLatency.Summary()
	rep := &Report{Deterministic: det, Timing: tm, Verdicts: verdicts}
	rep.finalize()
	return rep, nil
}
