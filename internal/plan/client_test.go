package plan_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

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
