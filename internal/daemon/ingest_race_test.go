package daemon

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/profile"
)

// TestIngestPooledBuffersRace is the soak for the sync.Pool'd ingest
// body buffers: many concurrent pushers hammer a live daemon through
// the pooled decode path while readers pull snapshots and metrics. Run
// under -race it proves two properties at once:
//
//  1. No data race on the pool, the histogram, or the store.
//  2. No buffer aliasing across requests: every pusher writes edges in
//     its own private id range with known integer weights, so if a
//     recycled buffer's bytes ever leaked into another request's
//     decoded graph, the final store would hold edges with wrong ids
//     or wrong weights and the exact reconciliation below would fail.
func TestIngestPooledBuffersRace(t *testing.T) {
	const (
		pushers = 8
		rounds  = 30
		edges   = 24
	)
	ts, store := newTestDaemon(t)

	// pusherDCG builds the round-th snapshot for one pusher: edges in a
	// pusher-private id range, weights that are small exact integers so
	// float64 merge order cannot perturb the totals.
	pusherDCG := func(p, round int) *profile.DCG {
		g := profile.NewDCG()
		base := 1_000_000 * (p + 1)
		for e := 0; e < edges; e++ {
			g.AddSample(profile.Edge{
				Caller: base + e,
				Site:   base + 500_000 + e,
				Callee: base + (e+round)%edges,
			}, float64(1+(p+round+e)%7))
		}
		return g
	}

	var wg sync.WaitGroup
	errs := make(chan error, pushers+2)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				var body bytes.Buffer
				if _, err := pusherDCG(p, round).WriteTo(&body); err != nil {
					errs <- err
					return
				}
				resp, err := http.Post(ts.URL+api.PathIngest, "application/octet-stream", &body)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("pusher %d round %d: status %s", p, round, resp.Status)
					return
				}
			}
		}(p)
	}
	// Concurrent readers keep snapshot serialization and the metrics
	// histogram summary racing against the writers.
	for _, path := range []string{api.PathSnapshot, api.PathMetrics} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Serial reference: merge the same snapshots one at a time. The
	// store's final state must match it exactly — any aliasing between
	// pooled request buffers would have corrupted edge ids or weights.
	want := profile.NewDCG()
	for p := 0; p < pushers; p++ {
		for round := 0; round < rounds; round++ {
			want.Merge(pusherDCG(p, round))
		}
	}
	got := store.Snapshot()
	if got.NumEdges() != want.NumEdges() || got.Total() != want.Total() {
		t.Fatalf("store holds %d edges / %v weight, want %d / %v",
			got.NumEdges(), got.Total(), want.NumEdges(), want.Total())
	}
	for _, e := range want.Edges() {
		if got.Weight(e) != want.Weight(e) {
			t.Fatalf("edge %v: weight %v, want %v", e, got.Weight(e), want.Weight(e))
		}
	}

	// The latency histogram saw every successful push.
	if n := fetchMetrics(t, ts.URL).IngestLat.Count; n != pushers*rounds {
		t.Errorf("ingest_lat.count = %v, want %d", n, pushers*rounds)
	}
}
