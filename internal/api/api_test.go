package api

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gocbs/internal/profile"
)

// fastClient returns a Client aimed at srv with near-zero backoff so
// retry tests run in microseconds.
func fastClient(srv *httptest.Server) *Client {
	return &Client{BaseURL: srv.URL, Backoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond}
}

func TestErrorEnvelopeRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusBadRequest, CodeBadRequest, "no good")
	resp := rec.Result()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	he := ReadHTTPError(resp)
	if he.Status != http.StatusBadRequest || he.Code != CodeBadRequest || he.Msg != "no good" {
		t.Fatalf("round trip got %+v", he)
	}
	if he.Retryable() {
		t.Fatal("400 must not be retryable")
	}
}

func TestReadHTTPErrorPlainTextFallback(t *testing.T) {
	// A pre-envelope daemon answers with http.Error plain text; the
	// client must still surface the message.
	rec := httptest.NewRecorder()
	http.Error(rec, "old-style failure", http.StatusServiceUnavailable)
	he := ReadHTTPError(rec.Result())
	if he.Code != "" || he.Msg != "old-style failure" {
		t.Fatalf("got %+v", he)
	}
	if !he.Retryable() {
		t.Fatal("503 must be retryable")
	}
}

func TestWriteMethodNotAllowed(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteMethodNotAllowed(rec, "POST")
	resp := rec.Result()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q", allow)
	}
	if he := ReadHTTPError(resp); he.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q", he.Code)
	}
}

func TestPushDeltaRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			WriteError(w, http.StatusInternalServerError, CodeInternal, "transient")
			return
		}
		if r.URL.Path != PathIngest {
			t.Errorf("path = %q, want %s", r.URL.Path, PathIngest)
		}
		if r.Header.Get(HeaderPusher) != "p-1" || r.Header.Get(HeaderSeq) != "7" {
			t.Errorf("stamp headers = %q/%q", r.Header.Get(HeaderPusher), r.Header.Get(HeaderSeq))
		}
		json.NewEncoder(w).Encode(IngestResponse{Applied: true, MergedEdges: 1})
	}))
	defer srv.Close()
	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: 1, Site: 2, Callee: 3}, 5)
	resp, err := fastClient(srv).PushDeltaKeyed("p-1", 7, ProgramKey{}, g.Encode())
	if err != nil {
		t.Fatalf("PushDCG: %v", err)
	}
	if !resp.Applied || resp.MergedEdges != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}
}

func TestPushDeltaGivesUpOnPermanentError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "malformed")
	}))
	defer srv.Close()
	_, err := fastClient(srv).PushDeltaKeyed("p-1", 1, ProgramKey{}, []byte("junk"))
	if err == nil {
		t.Fatal("want error")
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.Code != CodeBadRequest {
		t.Fatalf("err = %v, want wrapped bad_request HTTPError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1 (4xx must not retry)", n)
	}
}

func TestDecayNeverRetries(t *testing.T) {
	// Decay is not idempotent: an ambiguous failure must surface, not
	// silently double-apply on retry.
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusInternalServerError, CodeInternal, "boom")
	}))
	defer srv.Close()
	if _, err := fastClient(srv).Decay(0.5, 0); err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls, want 1", n)
	}
}

func TestGetPlanConditional(t *testing.T) {
	const etag = `"plan-3-00000000deadbeef"`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathPlan || r.URL.Query().Get("program") != "javac" {
			t.Errorf("unexpected request %s %s", r.URL.Path, r.URL.RawQuery)
		}
		w.Header().Set("ETag", etag)
		w.Header().Set(HeaderPlanEpoch, "3")
		w.Header().Set(HeaderPlanPolicy, "trivial")
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte("plan-bytes"))
	}))
	defer srv.Close()
	c := fastClient(srv)

	first, err := c.GetPlanVersion("javac", "", "")
	if err != nil {
		t.Fatalf("GetPlan: %v", err)
	}
	if first.NotModified || string(first.Body) != "plan-bytes" || first.ETag != etag ||
		first.Epoch != 3 || first.Policy != "trivial" {
		t.Fatalf("first = %+v", first)
	}

	second, err := c.GetPlanVersion("javac", "", first.ETag)
	if err != nil {
		t.Fatalf("conditional GetPlan: %v", err)
	}
	if !second.NotModified || second.Body != nil {
		t.Fatalf("second = %+v", second)
	}
}

func TestFetchSnapshotRoundTrip(t *testing.T) {
	want := profile.NewDCG()
	want.AddSample(profile.Edge{Caller: 1, Site: 2, Callee: 3}, 4)
	want.AddSample(profile.Edge{Caller: 5, Site: 6, Callee: 7}, 8)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathSnapshot {
			t.Errorf("path = %q", r.URL.Path)
		}
		want.WriteTo(w)
	}))
	defer srv.Close()
	got, err := fastClient(srv).FetchSnapshot()
	if err != nil {
		t.Fatalf("FetchSnapshot: %v", err)
	}
	if got.NumEdges() != 2 || got.Total() != want.Total() {
		t.Fatalf("snapshot: %d edges, total %v", got.NumEdges(), got.Total())
	}
}

func TestRegisterAndLeaves(t *testing.T) {
	var got LeafStatus
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathRegister:
			if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
				t.Errorf("decode register: %v", err)
			}
			json.NewEncoder(w).Encode(RegisterResponse{Registered: true, Leaves: 1})
		case PathLeaves:
			json.NewEncoder(w).Encode(LeavesResponse{Leaves: []LeafStatus{got}})
		default:
			t.Errorf("unexpected path %q", r.URL.Path)
		}
	}))
	defer srv.Close()
	c := fastClient(srv)
	st := LeafStatus{ID: "leaf-0", Addr: "http://leaf0", Seq: 9, Edges: 2, Weight: 14}
	reg, err := c.Register(st)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !reg.Registered || reg.Leaves != 1 {
		t.Fatalf("reg = %+v", reg)
	}
	ls, err := c.Leaves()
	if err != nil {
		t.Fatalf("Leaves: %v", err)
	}
	if len(ls.Leaves) != 1 || ls.Leaves[0] != st {
		t.Fatalf("leaves = %+v", ls.Leaves)
	}
}

// TestValidProgramVersion is the whole contract of a wire-supplied
// build version: 1 to 64 lowercase hex digits and nothing else.
func TestValidProgramVersion(t *testing.T) {
	hex64 := strings.Repeat("0123456789abcdef", 4)
	for _, tc := range []struct {
		v    string
		want bool
	}{
		{"", false},
		{"0", true},
		{"f", true},
		{"9f86d081884c7d65", true}, // what Program.Version emits
		{hex64, true},
		{hex64 + "0", false},
		{"9F86D081884C7D65", false},
		{"9f86d081884c7d6F", false},
		{"g", false},
		{"9f86d081884c7d6g", false},
		{"9f86 d081", false},
		{"9f86/../d081", false},
		{"0x9f86", false},
		{"9f86d081884c7d65\n", false},
		{"\n", false},
		{"9f86\x00", false},
		{"９ｆ", false}, // full-width digits are not hex
	} {
		if got := ValidProgramVersion(tc.v); got != tc.want {
			t.Errorf("ValidProgramVersion(%q) = %t, want %t", tc.v, got, tc.want)
		}
	}
}
