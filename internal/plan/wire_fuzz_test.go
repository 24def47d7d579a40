package plan_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"gocbs/internal/plan"
)

// FuzzReadPlan hammers the wire decoder: arbitrary bytes must either
// fail cleanly or decode to a plan whose canonical re-encoding decodes
// back to the same plan. The seed corpus covers the valid shapes and
// every rejection path.
func FuzzReadPlan(f *testing.F) {
	seed := func(p *plan.Plan) []byte {
		p.Hash = p.ContentHash()
		return p.Encode()
	}
	f.Add(seed(&plan.Plan{Program: "compress", Policy: "new-linear", Epoch: 1}))
	f.Add(seed(&plan.Plan{
		Program: "mtrt", Policy: "j9-dynamic", Epoch: 42,
		Decisions: []plan.Decision{
			{Site: 1, Callee: 7, Kind: plan.KindStatic},
			{Site: 2, Callee: 9, Kind: plan.KindGuarded},
			{Site: 1000, Callee: 3, Kind: plan.KindNullGuard},
		},
	}))
	valid := seed(&plan.Plan{
		Program: "jess", Policy: "old-jikes", Epoch: 3,
		Decisions: []plan.Decision{{Site: 5, Callee: 2}},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                  // truncated record
	f.Add(append(append([]byte{}, valid...), 1)) // trailing byte
	f.Add(wireV1(&plan.Plan{                     // wire v1: refused
		Program: "jess", Policy: "old-jikes", Epoch: 3, Hash: 0x1234,
		Decisions: []plan.Decision{{Site: 5, Callee: 2}},
	}))
	f.Add([]byte("PLNB"))                   // bare magic
	f.Add([]byte("DCGB\x01\x00\x00\x00"))   // profile magic
	f.Add([]byte("dcg v1\nedge 1 2 3 4\n")) // legacy profile text
	huge := append([]byte{}, valid...)
	huge[4] = 0xFF // absurd version
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := plan.ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(data) < 8 || binary.LittleEndian.Uint32(data[4:8]) != plan.PlanWireVersion {
			t.Fatalf("accepted a payload of wire version other than %d", plan.PlanWireVersion)
		}
		// Whatever decoded must survive a canonical round trip.
		enc := p.Encode()
		p2, err := plan.ReadPlan(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding a decoded plan failed: %v", err)
		}
		if !p2.Equal(p) || p2.Epoch != p.Epoch || p2.Hash != p.Hash {
			t.Fatalf("round trip changed the plan: %+v vs %+v", p2, p)
		}
		if !bytes.Equal(p2.Encode(), enc) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
