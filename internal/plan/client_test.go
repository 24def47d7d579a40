package plan_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/plan"
)

// TestFetchVersionRefusesOtherBuilds: a client that demands a build
// takes a plan for exactly that build. A server answering with another
// build's plan, or with one that names no build at all, gets
// ErrVersionMismatch every time, and the refused body never becomes the
// cache entry a later 304 would serve.
func TestFetchVersionRefusesOtherBuilds(t *testing.T) {
	const want = "00000000c0ffee00"
	served := &plan.Plan{
		Program: "compress", Policy: "new-linear", Epoch: 4,
		Decisions: []plan.Decision{{Site: 3, Callee: 12}},
	}
	var conditional int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathPlan || r.URL.Query().Get("version") != want {
			t.Errorf("unexpected request %s", r.URL)
		}
		if r.Header.Get("If-None-Match") != "" {
			conditional++
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("ETag", `"fixed"`)
		w.Write(served.Encode())
	}))
	defer ts.Close()
	client := plan.NewClient(ts.URL)

	for _, version := range []string{"", "00000000deadbeef"} {
		served.Version = version
		served.Hash = served.ContentHash()
		for attempt := 0; attempt < 2; attempt++ {
			p, _, err := client.FetchVersion("compress", want)
			if !errors.Is(err, plan.ErrVersionMismatch) || p != nil {
				t.Errorf("served version %q, attempt %d: got plan %v, err %v; want ErrVersionMismatch", version, attempt, p, err)
			}
		}
	}
	if conditional != 0 {
		t.Errorf("client sent %d conditional requests: a refused plan's ETag was cached", conditional)
	}

	served.Version = want
	served.Hash = served.ContentHash()
	p, changed, err := client.FetchVersion("compress", want)
	if err != nil || !changed || p.Version != want {
		t.Fatalf("matching build: plan %+v, changed %v, err %v", p, changed, err)
	}
	if _, changed, err = client.FetchVersion("compress", want); err != nil || changed || conditional != 1 {
		t.Errorf("second fetch: changed %v, err %v, %d conditional requests; want the cached plan on a 304", changed, err, conditional)
	}
}

// TestClientDoesNotSerializeAcrossBuilds pins the client's locking
// contract, which a leaf's plan relay rests on: no lock is held across a
// round trip. With one build's fetch parked inside the server, another
// build's fetch, Cached and Builds all complete; concurrent fetches of
// one build each get the plan. Run under -race (make test-federation).
func TestClientDoesNotSerializeAcrossBuilds(t *testing.T) {
	slowEntered := make(chan struct{})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		program := r.URL.Query().Get("program")
		if program == "slow" {
			close(slowEntered)
			<-release
		}
		p := &plan.Plan{Program: program, Policy: "new-linear", Epoch: 1}
		p.Hash = p.ContentHash()
		w.Header().Set("ETag", `"`+program+`"`)
		w.Write(p.Encode())
	}))
	defer ts.Close()
	// Deferred after Close, so it runs first: a failing test must not
	// leave Close waiting on the parked handler.
	var releaseOnce sync.Once
	releaseSlow := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseSlow()
	client := plan.NewClient(ts.URL)

	slowDone := make(chan error, 1)
	go func() {
		_, _, err := client.FetchVersion("slow", "")
		slowDone <- err
	}()
	<-slowEntered

	fastDone := make(chan error, 4)
	for i := 0; i < cap(fastDone); i++ {
		go func() {
			p, _, err := client.FetchVersion("fast", "")
			if err == nil && p.Program != "fast" {
				err = fmt.Errorf("fetched a plan for %s", p.Program)
			}
			fastDone <- err
		}()
	}
	for i := 0; i < cap(fastDone); i++ {
		select {
		case err := <-fastDone:
			if err != nil {
				t.Fatalf("fetch fast: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("fetch fast blocked behind the slow build's round trip")
		}
	}
	if p := client.Cached("fast", ""); p == nil || p.Program != "fast" {
		t.Errorf("Cached(fast) = %v, want the fetched plan", p)
	}
	if p := client.Cached("slow", ""); p != nil {
		t.Errorf("Cached(slow) = %v before its fetch returned, want nil", p)
	}
	if n := client.Builds(); n != 1 {
		t.Errorf("Builds() = %d with one fetch parked, want 1", n)
	}

	releaseSlow()
	if err := <-slowDone; err != nil {
		t.Fatalf("fetch slow: %v", err)
	}
	if n := client.Builds(); n != 2 {
		t.Errorf("Builds() = %d, want 2", n)
	}
}
