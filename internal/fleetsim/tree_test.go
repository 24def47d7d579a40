package fleetsim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTreeSoakAllFaults is the federation acceptance scenario at full
// width: 16 pusher VMs spread round-robin over 4 leaf daemons
// forwarding into 1 root, under every fault kind, with leaf
// kill/restart cycles mid-run — and all four invariants must pass.
// The conservation check here is fleet-wide: the ROOT's aggregate must
// equal the merge of every pusher's acknowledged deltas after weight
// crossed two exactly-once hops (pusher→leaf, leaf→root).
func TestTreeSoakAllFaults(t *testing.T) {
	faults, _ := ParseFaults("all")
	rep, err := Run(Config{
		VMs:      16,
		Pullers:  4,
		Leaves:   4,
		Rounds:   4,
		Seed:     1,
		Faults:   faults,
		Restarts: 2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep.Format())
	if !rep.AllPassed() {
		t.Fatal("invariant checkers failed")
	}
	d := &rep.Deterministic
	if d.Leaves != 4 {
		t.Errorf("report leaves = %d, want 4", d.Leaves)
	}
	if len(d.FaultSchedule) == 0 {
		t.Error("seed 1 drew no faults — the soak exercised nothing")
	}
	if d.AckedPushes == 0 || d.FinalEdges == 0 || d.FinalWeight <= 0 {
		t.Errorf("empty root aggregate: %d pushes, %d edges, %.0f weight",
			d.AckedPushes, d.FinalEdges, d.FinalWeight)
	}
	if d.RestartsDone != 2 {
		t.Errorf("leaf restarts done = %d, want 2", d.RestartsDone)
	}
	var decoded Report
	if err := json.Unmarshal(rep.JSON(), &decoded); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
}

// TestTreeSameSeedIsDeterministic: the federated soak keeps the flat
// soak's determinism contract — same seed, same fault schedule, same
// fleet-wide aggregate, same digest.
func TestTreeSameSeedIsDeterministic(t *testing.T) {
	faults, _ := ParseFaults("all")
	cfg := Config{
		VMs:      4,
		Pullers:  2,
		Leaves:   2,
		Rounds:   3,
		Seed:     7,
		Faults:   faults,
		Restarts: 1,
	}
	run := func() []byte {
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllPassed() {
			t.Fatalf("invariants failed:\n%s", rep.Format())
		}
		b, err := json.MarshalIndent(rep.Deterministic, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return append(b, []byte("\ndigest: "+rep.Digest)...)
	}
	first, second := run(), run()
	t.Logf("deterministic section:\n%s", first)
	if !bytes.Equal(first, second) {
		t.Errorf("same seed produced different deterministic reports:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
}
