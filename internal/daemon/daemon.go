// Package daemon is the cbsd aggregation daemon as a library: the HTTP
// surface over a dcgstore.Multi — one substore per (program, version)
// build, and the zero key's for pushes that carry no program identity —
// plus the full serve/decay/checkpoint/shutdown lifecycle, extracted
// from cmd/cbsd so that tests and the fleet simulator
// (internal/fleetsim) can run a real daemon in-process — same handlers,
// same checkpoint files, same graceful-shutdown semantics — and
// kill/restart it mid-run.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// upstreamTimeout is a leaf's per-call timeout on its upstream, the one
// every pusher has. Tests shorten it.
var upstreamTimeout = api.DefaultTimeout

// Config is everything cbsd parses from flags; Run takes it whole so
// tests and the fleet simulator can drive the full daemon lifecycle
// in-process.
type Config struct {
	Addr string
	// Shards is accepted and ignored: the store has no shards. It stays
	// only because the frozen benchmark/fleet.go sets it; the next
	// benchmark PR deletes it.
	Shards          int
	Decay           float64
	DecayEvery      time.Duration
	DecayPrune      float64
	StateDir        string
	CheckpointEvery time.Duration
	ReadTimeout     time.Duration
	WriteTimeout    time.Duration
	PlanPolicy      string

	// VersionTTL, when positive, garbage-collects retired (program,
	// version) substores: once a newer version is active for a program,
	// the old version's graph is dropped after sitting write-idle for
	// this long. 0 disables eviction (retired versions are kept until
	// the substore cap bites).
	VersionTTL time.Duration

	// MaxUploadBytes bounds ingest/overlap request bodies; 0 selects
	// DefaultMaxUploadBytes. Tests shrink it to exercise the 413 path.
	MaxUploadBytes int64

	// Upstream, when set, runs this daemon as a federation LEAF: it
	// keeps ingesting from its shard of pushers, but forwards merged
	// deltas to the root at Upstream (as a pusher in its own right,
	// under its own identity and sequence stream), relays the root's
	// plans to its pullers through an ETag cache, and never decays
	// locally — decay composes only once, at the root.
	Upstream string
	// UpstreamID is the leaf's upstream pusher identity. Empty adopts
	// the identity persisted in the state dir, or mints a random one;
	// one dcgstore.ValidPusherID rejects stops Run before it listens.
	UpstreamID string
	// SelfURL is the base URL this leaf advertises when registering
	// with the root (the fleet simulator uses placeholder hosts).
	SelfURL string
	// ForwardEvery is the delta-forward + heartbeat cadence on a leaf;
	// 0 selects one second.
	ForwardEvery time.Duration

	// ResolveProgram, when non-nil, overrides how the plan service maps
	// a (program name, content-addressed version) to pristine bytecode.
	// version "" asks for the canonical build; a resolver that cannot
	// produce the requested build should return the build it has — the
	// service compares content hashes and refuses mismatches itself.
	// Nil resolves against the built-in benchmark suite (canonical
	// builds only), which is what production cbsd wants; the fleet
	// simulator injects a resolver that also knows mid-upgrade builds.
	ResolveProgram func(name, version string) (*bytecode.Program, error)

	// Ready, when non-nil, receives the bound listen address once the
	// daemon is serving (tests bind :0).
	Ready chan<- string
	Logf  func(format string, args ...any)
}

// Run brings the daemon up and serves until ctx is cancelled (a
// signal, in production), then shuts down gracefully: the listener
// closes, in-flight requests drain, the decay and checkpoint tickers
// stop, and — with a state dir — a final checkpoint is written so a
// graceful restart loses nothing.
func Run(ctx context.Context, cfg Config) error {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = dcgstore.DefaultCheckpointEvery
	}

	multi := dcgstore.NewMulti(0)
	if cfg.StateDir != "" {
		loaded, err := dcgstore.RestoreMultiCheckpoint(multi, cfg.StateDir)
		if err != nil {
			return fmt.Errorf("restore %s: %w", cfg.StateDir, err)
		}
		if loaded {
			st := multi.Stats()
			logf("restored checkpoint from %s: %d edges, %.0f weight, %d pushers, %d keyed builds",
				cfg.StateDir, st.Edges, st.TotalWeight, st.Pushers, multi.NumKeys())
		} else {
			logf("no checkpoint in %s, starting fresh", cfg.StateDir)
		}
	}

	// Federation wiring. Every daemon carries the registry routes (any
	// daemon can serve as a root); a daemon with an upstream is a leaf:
	// plans come from the relay instead of a local compiler, and the
	// forwarder streams the store's growth to the root.
	fed := newFedState()
	isLeaf := cfg.Upstream != ""
	var plans planSource
	var planSvc *plan.Service // non-nil only at the root; drives RefreshAll
	if isLeaf {
		// One upstream HTTP client under the forwarder, registration and
		// the plan relay, with the timeout every pusher has: a root that
		// accepts and never answers costs a call upstreamTimeout, never
		// the shutdown.
		upHTTP := &http.Client{Timeout: upstreamTimeout}
		up := &api.Client{BaseURL: cfg.Upstream, HTTPClient: upHTTP, Retries: -1}
		relayed := plan.NewClient(cfg.Upstream)
		relayed.SetHTTPClient(upHTTP)
		statePath := ""
		if cfg.StateDir != "" {
			statePath = filepath.Join(cfg.StateDir, "forward-state.json")
		}
		fwd, err := dcgstore.NewForwarder(dcgstore.ForwarderConfig{
			ID:        cfg.UpstreamID,
			Upstream:  &dcgstore.Client{BaseURL: cfg.Upstream, HTTPClient: upHTTP, Retries: -1},
			Source:    multi.Snapshots,
			Manifests: multi.ManifestsInOrder,
			StatePath: statePath,
		})
		if err != nil {
			return fmt.Errorf("leaf forwarder: %w", err)
		}
		fed.fwd = fwd
		fed.upstream = up
		fed.selfURL = cfg.SelfURL
		plans = &planRelay{client: relayed}
		logf("leaf mode: forwarding to %s as %s", cfg.Upstream, fwd.ID())
		if cfg.Decay > 0 {
			logf("leaf mode: local decay disabled (a leaf store must stay monotonic; decay runs at the root)")
		}
	} else {
		planSvc = NewPlanService(cfg, multi, logf)
		plans = compiledPlans{planSvc}
	}

	srv := &http.Server{
		Handler:           newServer(multi, plans, fed, cfg.MaxUploadBytes, logf).handler(),
		ReadTimeout:       cfg.ReadTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	logf("cbsd listening on %s (decay %s, state %s)",
		ln.Addr(), decayDesc(cfg.Decay, cfg.DecayEvery), stateDesc(cfg))
	if cfg.Ready != nil {
		cfg.Ready <- ln.Addr().String()
	}

	// Background loops: decay, version gc, forwarding, periodic
	// checkpoints and plan refresh. All are wired into the shutdown path
	// — bg.Wait() below guarantees none of them races the final flush
	// and checkpoint.
	bgCtx, stopBg := context.WithCancel(context.Background())
	defer stopBg()
	var bg sync.WaitGroup
	background := func(loop func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			loop()
		}()
	}
	// tick runs fn every d until the background context ends. A tick
	// that was buffered while fn ran can be picked over Done when both
	// are ready; it is dropped once the context has ended, so shutdown
	// waits for at most the fn in flight.
	tick := func(d time.Duration, fn func()) {
		ticker := time.NewTicker(d)
		defer ticker.Stop()
		for {
			select {
			case <-bgCtx.Done():
				return
			case <-ticker.C:
				if bgCtx.Err() != nil {
					return
				}
				fn()
			}
		}
	}
	if cfg.Decay > 0 && !isLeaf {
		background(func() {
			tick(cfg.DecayEvery, func() {
				pruned := multi.DecayAll(cfg.Decay, cfg.DecayPrune)
				st := multi.Stats()
				logf("decay epoch %d: factor %v, pruned %d edges, %d remain",
					st.Epoch, cfg.Decay, pruned, st.Edges)
				planSvc.RefreshAll()
			})
		})
	}
	if cfg.VersionTTL > 0 {
		// Sweep at a fraction of the TTL so a retired version overstays
		// by at most ~25%; the sweep itself is cheap (map walk).
		every := cfg.VersionTTL / 4
		if every < time.Second {
			every = time.Second
		}
		background(func() {
			tick(every, func() {
				if n := multi.EvictRetired(cfg.VersionTTL); n > 0 {
					logf("version gc: evicted %d retired substore(s), %d live, %d total evictions",
						n, multi.NumKeys(), multi.Evicted())
				}
			})
		})
	}
	if fed.fwd != nil {
		every := cfg.ForwardEvery
		if every <= 0 {
			every = time.Second
		}
		// Registration is best-effort (the delta protocol carries
		// correctness); a failed heartbeat just retries next tick.
		register := func() {
			if err := fed.register(); err != nil {
				logf("register with %s: %v", cfg.Upstream, err)
			}
		}
		background(func() {
			register()
			tick(every, func() {
				if _, err := fed.fwd.Flush(); err != nil {
					logf("forward: %v", err)
				}
				// Shutdown began during the flush: the final flush
				// follows, and a heartbeat would only hold it up.
				if bgCtx.Err() == nil {
					register()
				}
			})
		})
	}
	if cfg.StateDir != "" {
		background(func() {
			tick(cfg.CheckpointEvery, func() {
				// A periodic failure is retried at the next tick, not fatal:
				// transient disk pressure should not kill the daemon.
				if err := dcgstore.SaveMultiCheckpoint(cfg.StateDir, multi); err != nil {
					logf("checkpoint: %v", err)
				}
			})
		})
		// Keep persisted plans fresh at the same cadence as checkpoints:
		// a durable daemon re-plans on the checkpoint tick, not just on
		// demand, so the plan files a restart restores from are recent.
		// (A leaf has no compiler — its relay cache is refreshed by the
		// downstream pulls themselves.)
		if planSvc != nil {
			background(func() { tick(cfg.CheckpointEvery, planSvc.RefreshAll) })
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopBg()
		bg.Wait()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight requests first so their
	// merges make the final checkpoint, then stop the background
	// tickers, then checkpoint.
	logf("shutting down: draining requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	shutdownErr := srv.Shutdown(drainCtx)
	stopBg()
	bg.Wait()
	if fed.fwd != nil {
		// Final flush after the drain so every merged push makes the
		// last increment. Failure is safe: the capture persisted before
		// the push attempt, so a restart re-sends it and the root
		// deduplicates.
		if resp, err := fed.fwd.Flush(); err != nil {
			logf("final flush: %v (%d increment(s) persisted for restart)", err, resp.Pending)
		} else if resp.Edges > 0 {
			logf("final flush: forwarded %d edges, %.0f weight (seq %d)", resp.Edges, resp.Weight, resp.Seq)
		}
	}
	if cfg.StateDir != "" {
		if err := dcgstore.SaveMultiCheckpoint(cfg.StateDir, multi); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		st := multi.Stats()
		logf("final checkpoint written to %s (%d edges, %.0f weight, %d keyed builds)",
			cfg.StateDir, st.Edges, st.TotalWeight, multi.NumKeys())
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}
	<-serveErr // Serve returns ErrServerClosed once Shutdown begins
	return nil
}

// NewPlanService builds the inlining-plan compiler over the live store
// family. Programs are resolved against the built-in benchmark suite and
// prepared with inline.JITOnly, as every VM's copy of the same build is
// (a Config.ResolveProgram hook answers for its own). Each build's plan
// compiles from that build's own substore when one exists (falling back
// to the zero key's substore, where a fleet that does not stamp its
// pushes lands), and its cache invalidates on that substore's counters
// alone — ingest for program A no longer forces program B to recompile.
// With a state dir, compiled plans persist next to the store
// checkpoints and epochs survive restarts.
func NewPlanService(cfg Config, multi *dcgstore.Multi, logf func(string, ...any)) *plan.Service {
	params := plan.DefaultParams()
	if cfg.PlanPolicy != "" {
		params.Policy = cfg.PlanPolicy
	}
	resolve := cfg.ResolveProgram
	if resolve == nil {
		resolve = func(name, _ string) (*bytecode.Program, error) {
			b := bench.ByName(name)
			if b == nil {
				return nil, fmt.Errorf("%w: no benchmark named %q", plan.ErrUnknownProgram, name)
			}
			prog, err := b.Compile()
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", name, err)
			}
			if err := inline.JITOnly(prog); err != nil {
				return nil, fmt.Errorf("prepare %s: %w", name, err)
			}
			return prog, nil
		}
	}
	// substoreFor is the one lookup both closures share: this build's
	// substore, else the zero key's.
	substoreFor := func(program, version string) (sub *dcgstore.Store, own bool) {
		if sub := multi.Lookup(api.ProgramKey{Program: program, Version: version}); sub != nil {
			return sub, true
		}
		return multi.Lookup(api.ProgramKey{}), false
	}
	return plan.NewService(plan.ServiceConfig{
		Source: func(program, version string) *profile.DCG {
			sub, _ := substoreFor(program, version)
			return sub.Snapshot()
		},
		Version: func(program, version string) (merges, epochs uint64) {
			sub, own := substoreFor(program, version)
			m, e := sub.Version()
			if own {
				// The tag bit marks "counters of the build's own
				// substore": a build whose substore appears after its
				// plan compiled from the zero key's must invalidate even
				// if the raw counter pair happens to collide.
				m |= 1 << 63
			}
			return m, e
		},
		CompileProgram: resolve,
		Params:         params,
		StateDir:       cfg.StateDir,
		Logf:           logf,
	})
}

func decayDesc(factor float64, every time.Duration) string {
	if factor == 0 {
		return "off"
	}
	return fmt.Sprintf("%v every %s", factor, every)
}

func stateDesc(cfg Config) string {
	if cfg.StateDir == "" {
		return "memory-only"
	}
	return fmt.Sprintf("%s every %s", cfg.StateDir, cfg.CheckpointEvery)
}
