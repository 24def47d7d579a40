package fleetsim

import (
	"testing"
)

// upgradeConfig is the rolling-upgrade scenario at test scale.
func upgradeConfig(logf func(string, ...any)) Config {
	return Config{
		Upgrade:  true,
		VMs:      4,
		Pullers:  1,
		Rounds:   6,
		Seed:     7,
		Restarts: 1,
		Logf:     logf,
	}
}

// TestRollingUpgrade is the acceptance test for content-addressed
// program versions: half the fleet flips to a modified build mid-run
// and every invariant must hold per version — weight conservation
// (v2's including the carried-forward baseline), restart byte-identity
// for both builds' /snapshot and /plan, monotone non-flapping plan
// epochs within each version, no cross-version plan ever observed, and
// the misrouted probe refusing v1 plans while running v2.
func TestRollingUpgrade(t *testing.T) {
	rep, err := Run(upgradeConfig(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Format())
	d := &rep.Deterministic
	if len(d.Versions) != 2 || d.Versions[0] == d.Versions[1] {
		t.Fatalf("upgrade did not run two distinct builds: %v", d.Versions)
	}
	if d.FlipRound != 3 || d.RestartsDone != 1 {
		t.Errorf("flip before round %d with %d restart(s), want round 3 and 1", d.FlipRound, d.RestartsDone)
	}
	want := []string{
		InvariantRestart, InvariantDivergence,
		InvariantCarryForward, InvariantVersionScoping, InvariantVersionRefusal,
	}
	for _, ver := range d.Versions {
		want = append(want, InvariantConservation+"@"+ver[:8], InvariantPlanEpochs+"@"+ver[:8])
	}
	for _, name := range want {
		if passed, ok := d.Invariants[name]; !ok {
			t.Errorf("verdict %s missing", name)
		} else if !passed {
			t.Errorf("invariant %s FAILED", name)
		}
	}
	if len(rep.Verdicts) != len(want) {
		t.Errorf("%d verdicts, want %d", len(rep.Verdicts), len(want))
	}
	if !rep.AllPassed() {
		t.Fatal("rolling-upgrade soak failed")
	}
}

// TestUpgradeSameSeedIsDeterministic: the rolling upgrade keeps the
// flat soak's reproducibility contract — same seed, same digest, same
// verdict set — under every fault kind.
func TestUpgradeSameSeedIsDeterministic(t *testing.T) {
	cfg := upgradeConfig(nil)
	cfg.Faults, _ = ParseFaults("all")
	run := func() *Report {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllPassed() {
			t.Fatalf("invariants failed:\n%s", rep.Format())
		}
		return rep
	}
	first, second := run(), run()
	if first.Digest != second.Digest {
		t.Errorf("same seed, different digests: %s vs %s", first.Digest, second.Digest)
	}
	for i, v := range first.Verdicts {
		if second.Verdicts[i].Name != v.Name {
			t.Errorf("verdict %d: %s vs %s", i, v.Name, second.Verdicts[i].Name)
		}
	}
}

// TestRejectedConfigs pins the configurations Run refuses up front
// instead of half-supporting or silently bending.
func TestRejectedConfigs(t *testing.T) {
	for name, cfg := range map[string]Config{
		"upgrade over a tree":          {Upgrade: true, Leaves: 2},
		"upgrade too short to flip":    {Upgrade: true, Rounds: 3},
		"upgrade restarts before flip": {Upgrade: true, Rounds: 6, Restarts: 3},
	} {
		if rep, err := Run(cfg); err == nil {
			t.Errorf("%s: ran anyway (digest %s)", name, rep.Digest)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// TestUpgradeProgramIsMinimal pins what "an upgrade" means to the
// scenario: the version changes, exactly one method fingerprint
// changes, and no call-site fingerprint moves — so carry-forward has a
// well-defined survivor set.
func TestUpgradeProgramIsMinimal(t *testing.T) {
	v1prog, _, err := (&Config{Program: "compress"}).prepare()
	if err != nil {
		t.Fatal(err)
	}
	v2prog := upgradeProgram(v1prog)
	if v1prog.Version() == v2prog.Version() {
		t.Fatal("version unchanged by upgrade")
	}
	m1 := v1prog.BuildManifest("compress")
	m2 := v2prog.BuildManifest("compress")
	changed := 0
	for i := range m1.Methods {
		if m1.Methods[i] != m2.Methods[i] {
			changed++
		}
	}
	if changed != 1 {
		t.Errorf("%d method fingerprints changed, want exactly 1", changed)
	}
	if len(m1.Sites) != len(m2.Sites) {
		t.Fatalf("site count changed: %d -> %d", len(m1.Sites), len(m2.Sites))
	}
	for i := range m1.Sites {
		if m1.Sites[i] != m2.Sites[i] {
			t.Errorf("site %d fingerprint moved: %+v -> %+v", i, m1.Sites[i], m2.Sites[i])
		}
	}
}
