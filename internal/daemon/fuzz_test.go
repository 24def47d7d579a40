package daemon

import (
	"bytes"
	"math"
	"net/http/httptest"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
)

// dcgBytes serializes g in the wire format.
func dcgBytes(t testing.TB, g *profile.DCG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzIngestHostilePusher throws arbitrary (pusher header, sequence
// header, body) triples at the ingest handler — the exact surface a
// hostile or broken pusher controls — and asserts the store survives
// every one of them:
//
//   - pre-existing weight is never lost or altered,
//   - every stored weight stays finite and positive (a NaN/Inf/negative
//     smuggled through would poison plans and decay forever),
//   - a rejected request (anything but 200) leaves the store
//     byte-identical,
//   - and the store can always still be checkpointed and restored to a
//     byte-identical graph — a hostile push must not be able to wedge
//     durability.
func FuzzIngestHostilePusher(f *testing.F) {
	good := profile.NewDCG()
	good.AddSample(profile.Edge{Caller: 9, Site: 9, Callee: 9}, 3)
	goodBody := dcgBytes(f, good)

	f.Add("vm-1", "1", []byte{})
	f.Add("vm-1", "2", goodBody)
	f.Add("", "", goodBody)                        // unstamped legacy push
	f.Add("vm 1", "1", goodBody)                   // bad pusher id
	f.Add("vm-1", "0", goodBody)                   // sequences start at 1
	f.Add("vm-1", "1", goodBody[:len(goodBody)-2]) // truncated record
	f.Add("vm-1", "99999999999999999999", goodBody)
	f.Add("p\x00q", "-1", []byte("DCGB garbage"))
	f.Add("vm-1", "4", []byte("dcg v1\nedge 1 2 3 4\n"))            // the text format that predated DCGB: refused
	f.Add("vm-1", "3", append(append([]byte{}, goodBody...), 0xFF)) // trailing junk

	baseEdge := profile.Edge{Caller: 1, Site: 2, Callee: 3}

	f.Fuzz(func(t *testing.T, pusher, seq string, body []byte) {
		multi := dcgstore.NewMulti(4)
		store := multi.Lookup(api.ProgramKey{})
		base := profile.NewDCG()
		base.AddSample(baseEdge, 10)
		if !store.MergeDCGFrom("good-pusher", 1, base) {
			t.Fatal("seeding merge rejected")
		}
		before := dcgBytes(t, store.Snapshot())

		h := newServer(multi, nil, nil, 1<<16, t.Logf).handler()
		req := httptest.NewRequest("POST", api.PathIngest, bytes.NewReader(body))
		// Set headers through the map: hostile values (control bytes,
		// overlong strings) must reach the handler's own validation.
		if pusher != "" {
			req.Header[api.HeaderPusher] = []string{pusher}
		}
		if seq != "" {
			req.Header[api.HeaderSeq] = []string{seq}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		snap := store.Snapshot()
		if w := snap.Weight(baseEdge); w != 10 {
			t.Fatalf("hostile push changed pre-existing weight: %v (status %d)", w, rec.Code)
		}
		for _, e := range snap.Edges() {
			w := snap.Weight(e)
			if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
				t.Fatalf("hostile push stored invalid weight %v at %v (status %d)", w, e, rec.Code)
			}
		}
		if rec.Code == 200 && !bytes.HasPrefix(body, []byte("DCGB")) {
			t.Fatalf("ingest accepted a body that does not start DCGB: %q", body)
		}
		if rec.Code != 200 {
			if got := dcgBytes(t, snap); !bytes.Equal(got, before) {
				t.Fatalf("rejected push (status %d) still mutated the store", rec.Code)
			}
		}

		dir := t.TempDir()
		if err := dcgstore.SaveMultiCheckpoint(dir, multi); err != nil {
			t.Fatalf("store no longer checkpointable after hostile push: %v", err)
		}
		restored := dcgstore.NewMulti(4)
		if _, err := dcgstore.RestoreMultiCheckpoint(restored, dir); err != nil {
			t.Fatalf("checkpoint written after hostile push does not restore: %v", err)
		}
		if got, want := dcgBytes(t, restored.Lookup(api.ProgramKey{}).Snapshot()), dcgBytes(t, snap); !bytes.Equal(got, want) {
			t.Fatal("checkpoint round trip diverged after hostile push")
		}
	})
}
