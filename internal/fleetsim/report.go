package fleetsim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"gocbs/internal/stats"
)

// Deterministic is the part of a fleet report that is a pure function
// of the run's configuration and seed: two runs with the same Config
// must produce byte-identical Deterministic sections (and therefore
// equal Digests). Anything wall-clock- or interleaving-dependent lives
// in Timing instead.
type Deterministic struct {
	Seed    int64  `json:"seed"`
	Program string `json:"program"`
	VMs     int    `json:"vms"`
	Pullers int    `json:"pullers"`
	// Leaves is the federated-tree width (0 = single daemon). In tree
	// runs RestartsDone counts leaf kill/restart cycles and the final
	// aggregate is read from the ROOT after a fleet-wide drain.
	Leaves        int    `json:"leaves,omitempty"`
	Rounds        int    `json:"rounds"`
	ItersPerRound int    `json:"iters_per_round"`
	Faults        string `json:"faults"`
	RestartsDone  int    `json:"restarts_done"`
	// Versions and FlipRound describe a rolling upgrade (absent
	// otherwise): the two builds' content-addressed versions, old
	// first, and the round before which half the fleet flipped. In an
	// upgrade the final aggregate figures below sum both builds'
	// substores.
	Versions  []string `json:"versions,omitempty"`
	FlipRound int      `json:"flip_round,omitempty"`

	// FaultSchedule is every fault drawn, in canonical (actor, request)
	// order; FaultCounts aggregates it per kind.
	FaultSchedule []FaultEvent      `json:"fault_schedule"`
	FaultCounts   map[FaultKind]int `json:"fault_counts"`

	// AckedPushes is the total number of stamped increments the daemon
	// acknowledged across all pushers; FinalEdges/FinalWeight describe
	// the daemon's aggregate graph after the final drain. With decay off
	// (fleetsim always runs the daemon without decay) weights are exact
	// integer sample counts, so these are seed-deterministic.
	AckedPushes int     `json:"acked_pushes"`
	FinalEdges  int     `json:"final_edges"`
	FinalWeight float64 `json:"final_weight"`

	// Invariants maps checker name to pass/fail. Verdict details may
	// mention timing-dependent numbers, so only the booleans are part of
	// the deterministic section.
	Invariants map[string]bool `json:"invariants"`
}

// Timing is the measured, non-deterministic part of a fleet report.
type Timing struct {
	DurationMs   float64                `json:"duration_ms"`
	IngestPerSec float64                `json:"ingest_per_sec"`
	PushLatency  stats.HistogramSummary `json:"push_latency_ms"`
	PullLatency  stats.HistogramSummary `json:"pull_latency_ms"`
	PullerPolls  int                    `json:"puller_polls"`
	PullerSwaps  int                    `json:"puller_swaps"`
	// FinalPlanEpoch is the highest epoch any puller observed; it
	// depends on how poll timing interleaved with merges.
	FinalPlanEpoch uint64 `json:"final_plan_epoch"`
}

// Report is the machine-readable result of one fleet soak.
type Report struct {
	Deterministic Deterministic `json:"deterministic"`
	// Digest is an FNV-1a hash of the canonical JSON encoding of
	// Deterministic — the one number a same-seed reproduction has to
	// match.
	Digest   string    `json:"digest"`
	Timing   Timing    `json:"timing"`
	Verdicts []Verdict `json:"verdicts"`
}

// finalize computes the digest from the deterministic section. Called
// once by Run after the section is complete.
func (r *Report) finalize() {
	b, err := json.Marshal(r.Deterministic)
	if err != nil {
		panic(fmt.Sprintf("fleetsim: encode deterministic report: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
}

// AllPassed reports whether every invariant checker passed.
func (r *Report) AllPassed() bool {
	if len(r.Verdicts) == 0 {
		return false
	}
	for _, v := range r.Verdicts {
		if !v.Passed {
			return false
		}
	}
	return true
}

// JSON returns the indented JSON encoding of the report.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("fleetsim: encode report: %v", err))
	}
	return b
}

// Format renders the human-readable summary cbsload prints.
func (r *Report) Format() string {
	var sb strings.Builder
	d, tm := &r.Deterministic, &r.Timing
	topology := "single daemon"
	if d.Leaves > 0 {
		topology = fmt.Sprintf("%d leaves + 1 root", d.Leaves)
	}
	fmt.Fprintf(&sb, "fleet soak: %d pusher VMs, %d pullers, %s, %d rounds of %s, seed %d, faults %s, %d restart(s)\n",
		d.VMs, d.Pullers, topology, d.Rounds, d.Program, d.Seed, d.Faults, d.RestartsDone)
	if len(d.Versions) == 2 {
		fmt.Fprintf(&sb, "  rolling upgrade: %s -> %s before round %d\n", d.Versions[0], d.Versions[1], d.FlipRound)
	}
	fmt.Fprintf(&sb, "  faults drawn: %d", len(d.FaultSchedule))
	for _, k := range AllFaults {
		if n := d.FaultCounts[k]; n > 0 {
			fmt.Fprintf(&sb, "  %s=%d", k, n)
		}
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  aggregate: %d acked pushes -> %d edges, %.0f weight  (digest %s)\n",
		d.AckedPushes, d.FinalEdges, d.FinalWeight, r.Digest)
	fmt.Fprintf(&sb, "  timing: %.0fms, %.1f ingests/s, polls %d, swaps %d, top epoch %d\n",
		tm.DurationMs, tm.IngestPerSec, tm.PullerPolls, tm.PullerSwaps, tm.FinalPlanEpoch)
	fmt.Fprintf(&sb, "  push latency: %s\n", tm.PushLatency)
	fmt.Fprintf(&sb, "  pull latency: %s\n", tm.PullLatency)
	for _, v := range r.Verdicts {
		mark := "PASS"
		if !v.Passed {
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "  [%s] %-22s %s\n", mark, v.Name, v.Detail)
	}
	return sb.String()
}
