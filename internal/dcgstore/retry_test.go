package dcgstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/profile"
)

// fastClient returns c tuned so retry tests don't sleep for real.
func fastClient(url string) *Client {
	c := NewClient(url)
	c.Backoff = time.Millisecond
	c.MaxBackoff = 4 * time.Millisecond
	return c
}

// ingestHandler is a minimal daemon-side /ingest: it merges the posted
// increment through the store's sequenced path and answers 200, with
// test-controlled fault injection before the response.
func ingestHandler(t testing.TB, store *Store, dropResponse func(n uint64) bool) http.Handler {
	var requests atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := requests.Add(1)
		g, err := profile.ReadDCG(r.Body)
		if err != nil {
			t.Errorf("ingest: bad payload: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var seq uint64
		pusher := r.Header.Get(api.HeaderPusher)
		if pusher != "" {
			seq, err = strconv.ParseUint(r.Header.Get(api.HeaderSeq), 10, 64)
			if err != nil {
				t.Errorf("ingest: bad %s: %v", api.HeaderSeq, err)
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		store.MergeDCGFrom(pusher, seq, g)
		if dropResponse != nil && dropResponse(n) {
			// The increment IS applied, but the pusher never hears
			// back — the at-least-once hazard this PR fixes.
			panic(http.ErrAbortHandler)
		}
		fmt.Fprintln(w, `{"applied":true}`)
	})
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "try later", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "{}")
	}))
	defer ts.Close()

	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 1)
	if err := fastClient(ts.URL).PushDelta("vm-retry", 1, g); err != nil {
		t.Fatalf("PushDelta after transient failures: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

func TestClientDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad payload", http.StatusBadRequest)
	}))
	defer ts.Close()

	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 1)
	if err := fastClient(ts.URL).PushDelta("vm-retry", 1, g); err == nil {
		t.Fatal("PushDelta succeeded against a 400ing daemon")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (4xx must not be retried)", got)
	}
}

func TestClientRetryAfterDroppedResponseDoesNotDoubleCount(t *testing.T) {
	store := New()
	// Drop the very first response: the increment lands, the ack is
	// lost, the client retries the same stamp, the store deduplicates.
	ts := httptest.NewServer(ingestHandler(t, store, func(n uint64) bool { return n == 1 }))
	defer ts.Close()

	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 7)
	if err := fastClient(ts.URL).PushDelta("vm-retry", 1, g); err != nil {
		t.Fatalf("PushDelta: %v", err)
	}
	s := store.Snapshot()
	if w := s.Weight(edge(1, 2, 3)); w != 7 {
		t.Errorf("weight = %v, want 7 (retry after lost response double-counted)", w)
	}
	if d := store.Stats().Duplicates; d != 1 {
		t.Errorf("Duplicates = %d, want 1", d)
	}
}

// TestUnstampedPushIsNotRetried: a push with no (pusher, seq) stamp is
// merged every time the daemon sees it, so the client must not send it
// twice. The first response is dropped after the merge — the request a
// retry loop cannot tell from one that never arrived — and the push has
// to surface that error with the weight counted once, not come back
// clean with it counted twice.
func TestUnstampedPushIsNotRetried(t *testing.T) {
	store := New()
	ts := httptest.NewServer(ingestHandler(t, store, func(n uint64) bool { return n == 1 }))
	defer ts.Close()

	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 5)
	c := &api.Client{BaseURL: ts.URL, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	if _, err := c.PushDeltaKeyed("", 0, api.ProgramKey{}, g.Encode()); err == nil {
		t.Error("unstamped push whose response was lost reported success: it was retried")
	}
	if w := store.Snapshot().Weight(edge(1, 2, 3)); w != 5 {
		t.Errorf("weight = %v, want 5 (a retried unstamped push double-counts)", w)
	}
}

// TestFlakyPusherSoak is the end-to-end exactly-once soak: concurrent
// pushers stream growing graphs through DeltaPushers while the daemon
// drops a third of its responses after applying them, forcing constant
// retries. The final store must equal the serial merge of the final
// graphs — byte-identical under canonical serialization. Run under
// -race via `make test-race` / `make test-recovery`.
func TestFlakyPusherSoak(t *testing.T) {
	const (
		K     = 8  // pushers
		steps = 25 // pushes per pusher
	)
	store := New()
	ts := httptest.NewServer(ingestHandler(t, store, func(n uint64) bool { return n%3 == 0 }))
	defer ts.Close()

	finals := make([]*profile.DCG, K)
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + k)))
			c := fastClient(ts.URL)
			// A third of responses vanish; give the retry loop enough
			// budget that an unlucky streak cannot fail the soak.
			c.Retries = 30
			pusher := NewDeltaPusherWithID(c, "")
			g := profile.NewDCG()
			for i := 0; i < steps; i++ {
				for j := 0; j < 12; j++ {
					g.AddSample(edge(rng.Intn(30), rng.Intn(40), rng.Intn(30)), float64(1+rng.Intn(4)))
				}
				if err := pusher.Push(g); err != nil {
					t.Errorf("pusher %d step %d: %v", k, i, err)
					return
				}
			}
			if pusher.Pending() != 0 {
				t.Errorf("pusher %d finished with %d unacknowledged increments", k, pusher.Pending())
			}
			finals[k] = g
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	serial := profile.NewDCG()
	for _, g := range finals {
		serial.Merge(g)
	}
	got := store.Snapshot()
	var gb, sb bytes.Buffer
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), sb.Bytes()) {
		t.Errorf("flaky aggregation diverged from serial merge: %d edges/%v weight vs %d edges/%v weight",
			got.NumEdges(), got.Total(), serial.NumEdges(), serial.Total())
	}
	if store.Stats().Duplicates == 0 {
		t.Error("soak never exercised the dedup path; fault injection broken?")
	}
}

// TestDeltaPusherQueuesAcrossOutage: increments captured while the
// daemon is down stay queued with their original stamps and all land,
// in order, once it recovers. Every request carries the pusher's
// identity, and a keyed client's build on every one of them: the exact
// header sequence is pinned, failed attempts included.
func TestDeltaPusherQueuesAcrossOutage(t *testing.T) {
	for name, key := range map[string]api.ProgramKey{
		"unkeyed": {},
		"keyed":   {Program: "compress", Version: "00000000aaaaaaaa"},
	} {
		t.Run(name, func(t *testing.T) {
			store := New()
			var (
				down atomic.Bool
				mu   sync.Mutex
				seen []string
			)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				seen = append(seen, fmt.Sprintf("%s %s %s %s", r.Header.Get(api.HeaderPusher), r.Header.Get(api.HeaderSeq),
					r.Header.Get(api.HeaderProgram), r.Header.Get(api.HeaderProgramVersion)))
				mu.Unlock()
				if down.Load() {
					http.Error(w, "down", http.StatusServiceUnavailable)
					return
				}
				ingestHandler(t, store, nil).ServeHTTP(w, r)
			}))
			defer ts.Close()

			c := fastClient(ts.URL)
			c.Retries = -1 // fail fast so the queue, not the retry loop, carries the outage
			c.Key = key
			pusher := NewDeltaPusherWithID(c, "vm-outage")
			g := profile.NewDCG()

			down.Store(true)
			for i := 1; i <= 3; i++ {
				g.AddSample(edge(i, i, i), float64(i))
				if err := pusher.Push(g); err == nil {
					t.Fatal("Push succeeded against a down daemon")
				}
			}
			if pusher.Pending() != 3 {
				t.Fatalf("Pending = %d, want 3", pusher.Pending())
			}

			down.Store(false)
			g.AddSample(edge(4, 4, 4), 4)
			if err := pusher.Push(g); err != nil {
				t.Fatalf("Push after recovery: %v", err)
			}
			if pusher.Pending() != 0 || pusher.Pushes != 4 {
				t.Errorf("after recovery Pending=%d Pushes=%d, want 0/4", pusher.Pending(), pusher.Pushes)
			}
			var gb, sb bytes.Buffer
			if _, err := store.Snapshot().WriteTo(&gb); err != nil {
				t.Fatal(err)
			}
			if _, err := g.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), sb.Bytes()) {
				t.Error("store after outage differs from the source graph")
			}

			// Three pushes into the outage each try the oldest increment once;
			// the recovery push sends the queue in order.
			var want []string
			for _, seq := range []int{1, 1, 1, 1, 2, 3, 4} {
				want = append(want, fmt.Sprintf("vm-outage %d %s %s", seq, key.Program, key.Version))
			}
			mu.Lock()
			defer mu.Unlock()
			if !slices.Equal(seen, want) {
				t.Errorf("requests carried\n  %q\nwant\n  %q", seen, want)
			}
		})
	}
}

// TestTickPusherRetriesAndGiveUp: a failing daemon no longer kills the
// pusher on the first error; it keeps retrying until GiveUpAfter
// consecutive failures, and Flush delivers everything once the daemon
// is healthy again.
func TestTickPusherRetriesAndGiveUp(t *testing.T) {
	store := New()
	var down atomic.Bool
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		ingestHandler(t, store, nil).ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := fastClient(ts.URL)
	c.Retries = -1
	g := profile.NewDCG()
	tp := NewTickPusher(c, "", g, 1)
	tp.GiveUpAfter = 3

	down.Store(true)
	for i := 1; i <= 6; i++ {
		g.AddSample(edge(i, i, i), 1)
		tp.OnTimerTick(nil)
	}
	if tp.Err == nil {
		t.Fatal("Err not recorded while daemon down")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("daemon saw %d attempts, want 3 (give-up after 3 consecutive failures)", got)
	}

	// Flush still makes a final attempt and drains the whole queue.
	down.Store(false)
	if err := tp.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if tp.Err != nil || tp.Pending() != 0 {
		t.Errorf("after Flush Err=%v Pending=%d", tp.Err, tp.Pending())
	}
	snap := store.Snapshot()
	if snap.NumEdges() != 6 || snap.Total() != 6 {
		t.Errorf("store has %d edges/%v weight, want 6/6", snap.NumEdges(), snap.Total())
	}
}
