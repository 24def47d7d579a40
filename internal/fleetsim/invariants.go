package fleetsim

import (
	"bytes"
	"fmt"
	"sync"

	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// Verdict is one invariant checker's final judgement.
type Verdict struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

// Checker names, as they appear in reports and CI gates.
const (
	InvariantConservation = "weight-conservation"
	InvariantPlanEpochs   = "plan-epoch-monotone"
	InvariantRestart      = "restart-identity"
	InvariantDivergence   = "no-puller-divergence"
)

// checkConservation is invariant (1), exactly-once delivery observed
// end to end: after every pusher has drained, the daemon's aggregate
// graph must equal — byte for byte — the merge of the increments each
// pusher knows were acknowledged. A lost increment (weight missing) or
// a double-applied retry (weight duplicated) both break the equality.
func checkConservation(snapshot *profile.DCG, acked map[string]*profile.DCG) Verdict {
	merged := profile.NewDCG()
	for _, g := range acked {
		merged.Merge(g)
	}
	// The wire format sorts edges, so byte equality is graph equality.
	if bytes.Equal(snapshot.Encode(), merged.Encode()) {
		return Verdict{
			Name: InvariantConservation, Passed: true,
			Detail: fmt.Sprintf("store aggregate == sum of %d pushers' acknowledged deltas (%d edges, %.0f weight)",
				len(acked), snapshot.NumEdges(), snapshot.Total()),
		}
	}
	// Point at the first discrepancy to make failures debuggable.
	detail := fmt.Sprintf("store (%d edges, %.0f weight) != acknowledged sum (%d edges, %.0f weight)",
		snapshot.NumEdges(), snapshot.Total(), merged.NumEdges(), merged.Total())
	for _, e := range merged.Edges() {
		if sw, mw := snapshot.Weight(e), merged.Weight(e); sw != mw {
			detail += fmt.Sprintf("; first diff at %v: store %.0f, acked %.0f", e, sw, mw)
			break
		}
	}
	return Verdict{Name: InvariantConservation, Passed: false, Detail: detail}
}

// planChecker is invariant (2), online: every plan any puller observes
// must have a content hash that actually hashes its decisions, epochs
// must never regress for a given puller, one epoch must always carry
// one (hash, decision set), and the same decision set must never
// reappear under a new epoch (epochs bump only when decisions change).
type planChecker struct {
	mu           sync.Mutex
	observations int
	lastEpoch    map[string]uint64 // per puller
	epochHash    map[uint64]uint64
	epochDecs    map[uint64]string
	hashEpoch    map[uint64]uint64
	violations   []string
}

func newPlanChecker() *planChecker {
	return &planChecker{
		lastEpoch: make(map[string]uint64),
		epochHash: make(map[uint64]uint64),
		epochDecs: make(map[uint64]string),
		hashEpoch: make(map[uint64]uint64),
	}
}

func decisionKey(ds []plan.Decision) string {
	return fmt.Sprintf("%v", ds)
}

func (c *planChecker) violatef(format string, args ...any) {
	if len(c.violations) < 16 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// Observe is wired into every puller's Options.Observe hook.
func (c *planChecker) Observe(puller string, p *plan.Plan, swapped bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observations++

	if want := p.ContentHash(); p.Hash != want {
		c.violatef("%s: plan epoch %d carries hash %016x but its decisions hash to %016x",
			puller, p.Epoch, p.Hash, want)
	}
	if last, ok := c.lastEpoch[puller]; ok && p.Epoch < last {
		c.violatef("%s: plan epoch regressed %d -> %d", puller, last, p.Epoch)
	}
	if p.Epoch > c.lastEpoch[puller] {
		c.lastEpoch[puller] = p.Epoch
	}

	decs := decisionKey(p.Decisions)
	if h, ok := c.epochHash[p.Epoch]; ok {
		if h != p.Hash {
			c.violatef("epoch %d served two hashes: %016x and %016x", p.Epoch, h, p.Hash)
		}
		if prev := c.epochDecs[p.Epoch]; prev != decs {
			c.violatef("epoch %d served two decision sets", p.Epoch)
		}
	} else {
		c.epochHash[p.Epoch] = p.Hash
		c.epochDecs[p.Epoch] = decs
	}
	if e, ok := c.hashEpoch[p.Hash]; ok {
		if e != p.Epoch {
			c.violatef("identical decisions (hash %016x) served under epochs %d and %d — epoch bumped without a decision change",
				p.Hash, e, p.Epoch)
		}
	} else {
		c.hashEpoch[p.Hash] = p.Epoch
	}
	_ = swapped
}

// observed returns how many plans the pullers observed and the highest
// epoch among them.
func (c *planChecker) observed() (n int, topEpoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := range c.epochHash {
		if e > topEpoch {
			topEpoch = e
		}
	}
	return c.observations, topEpoch
}

func (c *planChecker) Verdict() Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.observations == 0 {
		return Verdict{Name: InvariantPlanEpochs, Passed: false,
			Detail: "no puller ever observed a plan — the harness did not exercise the plan path"}
	}
	if len(c.violations) > 0 {
		return Verdict{Name: InvariantPlanEpochs, Passed: false,
			Detail: fmt.Sprintf("%d violation(s): %s", len(c.violations), c.violations[0])}
	}
	return Verdict{Name: InvariantPlanEpochs, Passed: true,
		Detail: fmt.Sprintf("%d observations, %d distinct epoch(s), hashes consistent and monotone", c.observations, len(c.epochHash))}
}

// restartChecker is invariant (3): across every scheduled daemon
// kill/restart, the restarted daemon must re-serve a byte-identical
// /snapshot and a byte-identical /plan — durability visible from the
// outside, not just a checkpoint file that happens to parse.
type restartChecker struct {
	mu       sync.Mutex
	checks   int
	failures []string
}

// Record compares the pre-kill and post-restart captures of one
// restart cycle.
func (c *restartChecker) Record(restart int, snapBefore, snapAfter, planBefore, planAfter []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if !bytes.Equal(snapBefore, snapAfter) {
		c.failures = append(c.failures, fmt.Sprintf(
			"restart %d: /snapshot diverged (%d bytes before, %d after)", restart, len(snapBefore), len(snapAfter)))
	}
	if !bytes.Equal(planBefore, planAfter) {
		c.failures = append(c.failures, fmt.Sprintf(
			"restart %d: /plan diverged (%d bytes before, %d after)", restart, len(planBefore), len(planAfter)))
	}
}

func (c *restartChecker) Verdict(expected int) Verdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.checks != expected:
		return Verdict{Name: InvariantRestart, Passed: false,
			Detail: fmt.Sprintf("performed %d restart check(s), expected %d", c.checks, expected)}
	case len(c.failures) > 0:
		return Verdict{Name: InvariantRestart, Passed: false, Detail: c.failures[0]}
	case expected == 0:
		return Verdict{Name: InvariantRestart, Passed: true, Detail: "no restarts scheduled"}
	default:
		return Verdict{Name: InvariantRestart, Passed: true,
			Detail: fmt.Sprintf("%d restart check(s) re-served byte-identical /snapshot and /plan", c.checks)}
	}
}

// pullerOutcome is what the divergence checker needs from one puller.
type pullerOutcome struct {
	Name   string
	Killed bool
	Rounds int
	Swaps  int
	Err    error
}

// checkDivergence is invariant (4): no puller's kill switch may fire.
// puller.Run verifies every candidate plan against the unoptimized
// reference checksums before swapping it in and re-checks the live
// program every round; Killed means a centrally-compiled plan (or a
// swap) changed observable behaviour — the one thing the whole
// verify-before-swap design exists to prevent.
func checkDivergence(outcomes []pullerOutcome) Verdict {
	var swaps, rounds int
	for _, o := range outcomes {
		if o.Killed {
			return Verdict{Name: InvariantDivergence, Passed: false,
				Detail: fmt.Sprintf("%s tripped the divergence kill switch", o.Name)}
		}
		if o.Err != nil {
			return Verdict{Name: InvariantDivergence, Passed: false,
				Detail: fmt.Sprintf("%s failed: %v", o.Name, o.Err)}
		}
		swaps += o.Swaps
		rounds += o.Rounds
	}
	return Verdict{Name: InvariantDivergence, Passed: true,
		Detail: fmt.Sprintf("%d puller(s), %d rounds, %d verified hot-swaps, zero divergence", len(outcomes), rounds, swaps)}
}
