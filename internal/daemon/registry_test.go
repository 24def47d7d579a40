package daemon

import (
	"fmt"
	"testing"
	"time"

	"gocbs/internal/api"
)

func TestRegistryUpsertAndList(t *testing.T) {
	r := newLeafRegistry()
	if n, ok := r.Register(api.LeafStatus{ID: "leaf-1", Seq: 1}); n != 1 || !ok {
		t.Fatalf("count = %d ok = %v", n, ok)
	}
	if n, ok := r.Register(api.LeafStatus{ID: "leaf-0", Seq: 2}); n != 2 || !ok {
		t.Fatalf("count = %d ok = %v", n, ok)
	}
	// Heartbeat: same ID upserts, count unchanged.
	if n, ok := r.Register(api.LeafStatus{ID: "leaf-1", Seq: 9}); n != 2 || !ok {
		t.Fatalf("upsert count = %d ok = %v", n, ok)
	}
	ls := r.List()
	if len(ls) != 2 || ls[0].ID != "leaf-0" || ls[1].ID != "leaf-1" || ls[1].Seq != 9 {
		t.Fatalf("list = %+v", ls)
	}
}

// TestRegistryCapAndExpiry: registration is an unauthenticated upsert,
// so the registry must bound itself — a flood of distinct IDs stops at
// maxLeaves, heartbeats from known leaves still land at capacity, and
// entries that stop heartbeating age out to make room.
func TestRegistryCapAndExpiry(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	r := newLeafRegistry()
	r.now = func() time.Time { return now }

	for i := 0; i < maxLeaves; i++ {
		if _, ok := r.Register(api.LeafStatus{ID: fmt.Sprintf("leaf-%04d", i)}); !ok {
			t.Fatalf("registration %d refused below the cap", i)
		}
	}
	if n, ok := r.Register(api.LeafStatus{ID: "attacker-0"}); ok {
		t.Fatalf("registration beyond maxLeaves accepted (count %d)", n)
	}
	if r.Len() != maxLeaves {
		t.Fatalf("len = %d, want %d", r.Len(), maxLeaves)
	}
	// A known leaf's heartbeat still lands at capacity.
	if _, ok := r.Register(api.LeafStatus{ID: "leaf-0000", Seq: 7}); !ok {
		t.Fatal("heartbeat from a known leaf refused at capacity")
	}

	// Everything except leaf-0000 (re-heartbeated below) goes quiet past
	// the TTL; a fresh leaf then evicts the stale entries and registers.
	now = now.Add(leafTTL / 2)
	if _, ok := r.Register(api.LeafStatus{ID: "leaf-0000", Seq: 8}); !ok {
		t.Fatal("mid-TTL heartbeat refused")
	}
	now = now.Add(leafTTL/2 + time.Second)
	if n, ok := r.Register(api.LeafStatus{ID: "leaf-new"}); !ok || n != 2 {
		t.Fatalf("post-expiry registration: count = %d ok = %v, want 2 live leaves", n, ok)
	}
	ls := r.List()
	if len(ls) != 2 || ls[0].ID != "leaf-0000" || ls[1].ID != "leaf-new" {
		t.Fatalf("post-expiry list = %+v", ls)
	}
}
