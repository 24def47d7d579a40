package daemon

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gocbs/internal/api"
)

// TestRelayAnswersPinned drives a leaf's plan relay through every answer
// it has, in one sequence against a real root: a versioned request the
// root cannot build (404, counted as a version mismatch, never stale), a
// good relay, a conditional one the root answers 304, the root stopped
// (the cached plan served stale, byte for byte), and a program with no
// cache behind a dead root (503 upstream_unavailable). The leaf's
// /v1/metrics plan section after that sequence is pinned byte for byte.
func TestRelayAnswersPinned(t *testing.T) {
	rootCtx, stopRoot := context.WithCancel(context.Background())
	defer stopRoot()
	leafCtx, stopLeaf := context.WithCancel(context.Background())
	defer stopLeaf()
	rootURL, rootDone := startTreeDaemon(t, rootCtx, Config{PlanPolicy: "new-linear"})
	leafURL, leafDone := startTreeDaemon(t, leafCtx, Config{
		Upstream:     rootURL,
		UpstreamID:   "leaf-relay-0",
		ForwardEvery: time.Hour,
	})
	planURL := leafURL + api.PathPlan + "?program="

	get := func(query, ifNoneMatch string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, planURL+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	want := func(step string, resp *http.Response, body []byte, status int, stale, code string) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d (%s)", step, resp.StatusCode, status, body)
		}
		if got := resp.Header.Get(api.HeaderRelayStale); got != stale {
			t.Errorf("%s: %s %q, want %q", step, api.HeaderRelayStale, got, stale)
		}
		if code != "" && !strings.Contains(string(body), `"code":"`+code+`"`) {
			t.Errorf("%s: body %s, want code %s", step, body, code)
		}
	}

	resp, body := get("compress&version=00000000deadbeef", "")
	want("unknown build", resp, body, http.StatusNotFound, "", "not_found")

	resp, good := get("compress", "")
	want("good relay", resp, good, http.StatusOK, "", "")
	etag := resp.Header.Get("ETag")
	resp, body = get("compress", etag)
	want("conditional relay", resp, body, http.StatusNotModified, "", "")

	stopRoot()
	if err := <-rootDone; err != nil {
		t.Fatalf("root exited with %v", err)
	}
	resp, body = get("compress", "")
	want("root stopped", resp, body, http.StatusOK, "1", "")
	if string(body) != string(good) || resp.Header.Get("ETag") != etag {
		t.Errorf("stale serve differs from the good relay: %d vs %d bytes, ETag %s vs %s",
			len(body), len(good), resp.Header.Get("ETag"), etag)
	}
	resp, body = get("jess", "")
	want("no cache, root down", resp, body, http.StatusServiceUnavailable, "", "upstream_unavailable")

	resp = mustGet(t, leafURL+api.PathMetrics)
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := planSection(string(metrics)); got != relayPlanShape {
		t.Errorf("leaf /v1/metrics plan section moved.\ngot:\n%s\nwant:\n%s", got, relayPlanShape)
	}

	stopLeaf()
	if err := <-leafDone; err != nil {
		t.Fatalf("leaf exited with %v", err)
	}
}

// planSection cuts the "plan" object out of an indented /v1/metrics body.
func planSection(body string) string {
	start := strings.Index(body, `  "plan": {`)
	if start < 0 {
		return ""
	}
	end := strings.Index(body[start:], "\n  }")
	if end < 0 {
		return body[start:]
	}
	return body[start : start+end+len("\n  }")]
}

const relayPlanShape = `  "plan": {
    "programs": 1,
    "computed": 1,
    "unchanged": 1,
    "skipped": 0,
    "compile_errors": 3,
    "requests": 5,
    "not_modified": 1,
    "request_errors": 2,
    "relay_refreshes": 5,
    "relay_stale": 1,
    "version_mismatches": 1
  }`
