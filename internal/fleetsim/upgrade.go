package fleetsim

import (
	"fmt"
	"net/http"

	"gocbs/internal/bytecode"
)

// The rolling-upgrade scenario (Config.Upgrade): what the one driver
// in fleet.go needs beyond a second build — the build itself, the flip
// event, the misrouted refusal probe, and the three verdicts only an
// upgrade can earn. The base checkers run per build, tagged "@<ver>":
//   - weight conservation: the old build's final substore equals the
//     merge of all its acknowledged deltas, retired pushers' included;
//     the new build's equals the carried-forward baseline plus all of
//     its acknowledged deltas.
//   - restart byte-identity: both builds' /snapshot and /plan are
//     re-served byte-identically across every kill/restart.
//   - plan epochs: monotone and non-flapping within each build.

// Invariant names specific to the rolling-upgrade scenario.
const (
	InvariantVersionScoping = "version-scoping"
	InvariantVersionRefusal = "version-refusal"
	InvariantCarryForward   = "carry-forward"
)

// upgradeProgram derives the "new build" from a prepared program: a
// clone with one extra, never-referenced constant appended to
// $Globals.setup's pool. The mutation is deterministic and
// behaviour-preserving — no instruction, site ID, or PC changes — yet
// it changes the program's content-addressed version and exactly one
// method fingerprint, which is the minimal upgrade the carry-forward
// machinery has to handle: every edge not involving the changed method
// survives the flip, every edge touching it is re-learned.
func upgradeProgram(prog *bytecode.Program) *bytecode.Program {
	next := prog.Clone()
	m := next.MethodByName("$Globals.setup")
	if m == nil {
		// Benchmarks all follow the setup/iter protocol; fall back to the
		// first real method so the helper never silently no-ops.
		for _, cand := range next.Methods {
			if cand != nil {
				m = cand
				break
			}
		}
	}
	m.Consts = append(m.Consts, 0x5F55504752414445) // "_UPGRADE"
	return next
}

// rewriteVersionTransport is the misbehaving middlebox of the negative
// refusal test: it rewrites the ?version= parameter of every plan
// request from one build to another, so the daemon — correctly —
// serves the other build's plan to a VM that demanded its own. The
// puller must refuse every such plan at the wire.
type rewriteVersionTransport struct {
	inner    http.RoundTripper
	from, to string
}

func (t *rewriteVersionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	q := req.URL.Query()
	if q.Get("version") == t.from {
		req = req.Clone(req.Context())
		q.Set("version", t.to)
		req.URL.RawQuery = q.Encode()
	}
	return t.inner.RoundTrip(req)
}

// flip is the upgrade's round-boundary event: quiesce, retire the
// second half of the pushers for good, and launch build next on fresh
// VMs under new pusher identities — its manifest registration is where
// KRAB-style carry-forward from the old build's substore fires — plus
// its pullers and the refusal probe, a puller demanding next through a
// transport that misroutes it to the old build's plans.
func (f *fleet) flip(next *build, rounds int) error {
	if err := f.quiesce(); err != nil {
		return fmt.Errorf("flip drain: %w", err)
	}
	keep := f.cfg.VMs / 2
	for _, a := range f.active[keep:] {
		if err := a.finish(); err != nil {
			return err
		}
	}
	f.active = f.active[:keep]
	if err := f.launch(next, keep, f.cfg.VMs, f.cfg.Seed+1000, rounds); err != nil {
		return err
	}
	f.probe = f.startPuller("probe-00", next.prog, rounds, "http://"+f.root.host,
		&rewriteVersionTransport{
			inner: f.chaos.transportFor("probe-00", "pull"),
			from:  next.key.Version, to: f.live[0].key.Version,
		}, nil)
	f.cfg.Logf("fleetsim: flip: %d pushers now on %s, carried %d edges (%.0f weight)",
		len(next.pushers), next.key, next.carriedResp.CarriedEdges, next.carriedResp.CarriedWeight)
	f.chaos.enabled.Store(true)
	return nil
}

// upgradeVerdicts judges what only an upgrade can get wrong: the
// carried baseline matching what registration claimed, no puller ever
// observing a plan stamped with the other build's version, and the
// probe refusing every misrouted plan without ever swapping one in.
func (f *fleet) upgradeVerdicts() []Verdict {
	next := f.live[len(f.live)-1]
	resp, carried := next.carriedResp, next.carried
	carry := Verdict{Name: InvariantCarryForward, Passed: true,
		Detail: fmt.Sprintf("manifest registration carried %d edges (%.0f weight) into %s, matching the substore baseline",
			resp.CarriedEdges, resp.CarriedWeight, next.key.Version[:8])}
	if resp.CarriedEdges != carried.NumEdges() || resp.CarriedWeight != carried.Total() {
		carry.Passed = false
		carry.Detail = fmt.Sprintf("manifest response claims %d edges (%.0f weight) carried but the substore baseline holds %d (%.0f)",
			resp.CarriedEdges, resp.CarriedWeight, carried.NumEdges(), carried.Total())
	}

	scope := Verdict{Name: InvariantVersionScoping, Passed: true,
		Detail: "every observed plan was stamped with the version its puller demanded"}
	if n := f.crossServed.Load(); n > 0 {
		scope.Passed = false
		scope.Detail = fmt.Sprintf("%d plan(s) arrived stamped with another build's version", n)
	}

	refusal := Verdict{Name: InvariantVersionRefusal}
	switch st := f.probe.st; {
	case f.probe.err != nil:
		refusal.Detail = fmt.Sprintf("probe failed outright: %v", f.probe.err)
	case st.Swaps > 0 || st.Epoch != 0:
		refusal.Detail = fmt.Sprintf("probe APPLIED a misrouted plan: %d swap(s), epoch %d", st.Swaps, st.Epoch)
	case st.VersionRejects == 0:
		refusal.Detail = fmt.Sprintf("probe never fired the refusal path (%d polls)", st.Polls)
	case st.Killed:
		refusal.Detail = "probe tripped the kill switch — a refused plan must never reach execution"
	default:
		refusal.Passed = true
		refusal.Detail = fmt.Sprintf("probe refused %d misrouted plan(s) over %d polls, zero swaps", st.VersionRejects, st.Polls)
	}
	return []Verdict{carry, scope, refusal}
}
