// Command cbsd is the DCG aggregation daemon: a long-running HTTP
// service that ingests dynamic call graph snapshots pushed by profiling
// VMs (cbsvm -push), merges them into one call graph per (program,
// version) build, and serves query endpoints over the fleet-wide graph —
// the centralized "exploit" half of the paper's collect-and-exploit
// loop, scaled from one VM to many. Each build's store is a graph, a
// ledger of per-pusher sequence marks and a mutex (internal/dcgstore):
// a push is tens to a few hundred edges, builds do not share a store,
// and every reader takes a whole consistent copy, so there is nothing
// to tune and no -shards flag (passing one is a flag error).
//
//	cbsd -addr :8944
//	cbsd -addr :8944 -decay 0.5 -decay-every 30s
//	cbsd -addr :8944 -state-dir /var/lib/cbsd -checkpoint-every 30s
//
// With -state-dir the daemon is durable: the store is checkpointed to
// disk periodically and on graceful shutdown (SIGINT/SIGTERM drains
// in-flight requests, stops the decay ticker, and writes a final
// checkpoint), and a restarted daemon reloads the checkpoint — graph
// and per-pusher ingest sequences — so the fleet graph survives
// restarts and pusher retries stay deduplicated across them.
//
// Endpoints (all under /v1, the only spelling; see internal/api):
//
//	POST /v1/ingest    merge a serialized DCG snapshot into the store
//	                   (X-Cbs-Pusher/X-Cbs-Seq headers make it idempotent)
//	POST /v1/manifest  register a build's method/site manifest, carrying
//	                   an earlier build's edges forward by fingerprint
//	GET  /v1/snapshot  stream the merged DCG (binary wire format)
//	GET  /v1/top?k=N   heaviest N edges as JSON
//	GET  /v1/site?id=N receiver-target distribution at one call site
//	GET  /v1/overlap   overlap of the store against a reference DCG
//	                   carried in the request body
//	POST /v1/decay     run one decay epoch (?factor=, optional ?prune=)
//	GET  /v1/plan      compiled inlining plan (?program=)
//	GET  /v1/metrics   operational counters (JSON)
//	GET  /v1/healthz   liveness probe
//	POST /v1/flush     leaf only: forward the accumulated delta upstream now
//	POST /v1/register  root side: leaf registration/heartbeat
//	GET  /v1/leaves    root side: registered leaves
//
// Federation: with -upstream the daemon runs as a LEAF in a two-level
// aggregation tree. It still ingests from its shard of pushers, but
// forwards merged deltas to the root over the same idempotent delta
// protocol (the leaf is a pusher in its own right, with its own
// identity and sequence stream), relays the root's compiled plans to
// its pullers through an ETag cache, and never decays locally — decay
// runs once, at the root.
//
//	cbsd -addr :9000                                  # root
//	cbsd -addr :9001 -upstream http://localhost:9000  # leaf
//
// The daemon itself lives in internal/daemon so tests and the fleet
// simulator (internal/fleetsim, cmd/cbsload) can run the identical
// lifecycle in-process; this command is the flag-parsing shell.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gocbs/internal/daemon"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
)

func main() {
	var cfg daemon.Config
	flag.StringVar(&cfg.Addr, "addr", ":8944", "listen address")
	flag.Float64Var(&cfg.Decay, "decay", 0, "periodic decay factor in (0,1]; 0 disables background decay")
	flag.DurationVar(&cfg.DecayEvery, "decay-every", time.Minute, "interval between background decay epochs")
	flag.Float64Var(&cfg.DecayPrune, "decay-prune", 1e-6, "drop edges whose decayed weight falls below this")
	flag.StringVar(&cfg.StateDir, "state-dir", "", "directory for durable checkpoints; empty keeps the store memory-only")
	flag.DurationVar(&cfg.CheckpointEvery, "checkpoint-every", dcgstore.DefaultCheckpointEvery, "interval between periodic checkpoints (with -state-dir)")
	flag.DurationVar(&cfg.ReadTimeout, "read-timeout", 30*time.Second, "HTTP server read timeout")
	flag.DurationVar(&cfg.WriteTimeout, "write-timeout", 60*time.Second, "HTTP server write timeout")
	flag.Int64Var(&cfg.MaxUploadBytes, "max-upload", daemon.DefaultMaxUploadBytes, "largest accepted ingest/overlap body in bytes (413 beyond)")
	flag.DurationVar(&cfg.VersionTTL, "version-ttl", 0, "evict a retired program version's graph after this much write-idle time (0 keeps retired versions)")
	flag.StringVar(&cfg.PlanPolicy, "plan-policy", plan.DefaultParams().Policy, "inline policy plans are compiled under (new-linear, old-jikes, j9-static, j9-dynamic)")
	flag.StringVar(&cfg.Upstream, "upstream", "", "root daemon base URL; set to run as a federation leaf")
	flag.StringVar(&cfg.UpstreamID, "upstream-id", "", "leaf identity for the upstream sequence stream (default: persisted, else random)")
	flag.StringVar(&cfg.SelfURL, "self-url", "", "base URL this leaf advertises when registering with the root")
	flag.DurationVar(&cfg.ForwardEvery, "forward-every", time.Second, "leaf delta-forward and heartbeat cadence (with -upstream)")
	role := flag.String("role", "", "optional role assertion: 'root' or 'leaf'; fails fast when it contradicts -upstream")
	flag.Parse()

	if cfg.Decay < 0 || cfg.Decay > 1 {
		log.Fatalf("cbsd: -decay %v out of range (0,1]", cfg.Decay)
	}
	if _, err := plan.PolicyByName(cfg.PlanPolicy); err != nil {
		log.Fatalf("cbsd: %v", err)
	}
	switch *role {
	case "":
	case "root":
		if cfg.Upstream != "" {
			log.Fatalf("cbsd: -role root contradicts -upstream %s", cfg.Upstream)
		}
	case "leaf":
		if cfg.Upstream == "" {
			log.Fatalf("cbsd: -role leaf requires -upstream")
		}
	default:
		log.Fatalf("cbsd: -role %q must be 'root' or 'leaf'", *role)
	}
	cfg.Logf = log.Printf

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, cfg); err != nil {
		log.Fatalf("cbsd: %v", err)
	}
}
