package fleetsim

import "testing"

// TestScenarioDigestsPinned holds the report digest of five fixed
// configurations — flat, tree, generated workload with mixed profile
// sources — to golden values. Same-seed tests only prove a build agrees
// with itself; these prove it agrees with every earlier build, so a
// change to the fault schedule, the ack count, the restart schedule or
// the final aggregate cannot land unnoticed. `cbsload -faults all` with
// the flags in each case name prints the same digest.
func TestScenarioDigestsPinned(t *testing.T) {
	all, _ := ParseFaults("all")
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest string
	}{
		{"-vms 8 -rounds 4 -seed 1 -restarts 1",
			Config{VMs: 8, Rounds: 4, Seed: 1, Restarts: 1}, "3885f94e6e946a96"},
		{"-vms 16 -leaves 4 -rounds 4 -seed 1 -restarts 2",
			Config{VMs: 16, Leaves: 4, Rounds: 4, Seed: 1, Restarts: 2}, "e539a64f891e9b43"},
		{"-vms 8 -rounds 4 -seed 7 -restarts 1",
			Config{VMs: 8, Rounds: 4, Seed: 7, Restarts: 1}, "1fb418ca6c2355d0"},
		{"-vms 8 -leaves 2 -rounds 4 -seed 7 -restarts 1",
			Config{VMs: 8, Leaves: 2, Rounds: 4, Seed: 7, Restarts: 1}, "abbb48af07dbf4fa"},
		{"-vms 16 -rounds 6 -seed 42 -restarts 1 -gen-seed 17 -gen-shape closureheavy -profilers cbs,exhaustive,mincover",
			Config{VMs: 16, Rounds: 6, Seed: 42, Restarts: 1,
				GeneratedWorkloads: true, GenSeed: 17, GenSize: 3, GenShape: "closureheavy",
				Profilers: []string{"cbs", "exhaustive", "mincover"}}, "1019b906486d43e1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Faults = all
			rep, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AllPassed() {
				t.Fatalf("invariants failed:\n%s", rep.Format())
			}
			if rep.Digest != tc.digest {
				t.Errorf("digest %s, pinned %s", rep.Digest, tc.digest)
			}
		})
	}
}
