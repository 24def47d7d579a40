package experiment

import (
	"fmt"

	"gocbs/internal/fleetsim"
)

// FleetSoak is the chaos-harness study: a deterministic fleet of CBS
// pusher VMs and plan pullers runs against a real in-process cbsd
// under injected latency, dropped responses, connection resets,
// synthetic 5xx, and mid-run daemon kill/restart cycles, while the
// fleetsim invariant checkers watch the end-to-end guarantees
// (exactly-once ingest, monotone plan epochs, restart byte-identity,
// no puller divergence). CI gates on the verdicts: a failed invariant
// is an error, not a table entry.

// FleetSoak runs the soak with every fault kind enabled — CI-sized, or
// smaller under a Quick config — seeded from cfg.Seeds[0], and returns
// the report; any failed invariant is returned as an error so callers
// (cbsbench, CI) fail loudly.
func FleetSoak(cfg Config) (*fleetsim.Report, error) {
	fc := fleetsim.Config{VMs: 16, Pullers: 4, Rounds: 6, Restarts: 2, Seed: 42}
	if cfg.Quick {
		fc = fleetsim.Config{VMs: 4, Pullers: 2, Rounds: 4, Restarts: 1, Seed: 42}
	}
	if len(cfg.Seeds) > 0 {
		fc.Seed = cfg.Seeds[0]
	}
	fc.Faults, _ = fleetsim.ParseFaults("all")
	rep, err := fleetsim.Run(fc)
	if err != nil {
		return nil, err
	}
	if !rep.AllPassed() {
		return rep, fmt.Errorf("fleet soak (seed %d) failed invariants:\n%s", fc.Seed, rep.Format())
	}
	return rep, nil
}
