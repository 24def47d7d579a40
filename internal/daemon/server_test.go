package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/vm"
)

func edge(c, s, t int) profile.Edge { return profile.Edge{Caller: c, Site: s, Callee: t} }

// newTestHandler is a root daemon's handler over an empty store family,
// plan service on.
func newTestHandler(tb testing.TB) (http.Handler, *dcgstore.Multi) {
	multi := dcgstore.NewMulti(8)
	cfg := Config{PlanPolicy: "new-linear"}
	return newServer(multi, compiledPlans{NewPlanService(cfg, multi, tb.Logf)}, newFedState(), cfg.MaxUploadBytes, tb.Logf).handler(), multi
}

func newTestDaemon(t *testing.T) (*httptest.Server, *dcgstore.Store) {
	t.Helper()
	h, multi := newTestHandler(t)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, multi.Lookup(api.ProgramKey{})
}

func postProfile(t *testing.T, url string, g *profile.DCG) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if _, err := g.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// getProfile sends g as a GET request body — how /v1/overlap takes its
// reference profile (a read parameterized by a payload, like a search
// body).
func getProfile(t *testing.T, url string, g *profile.DCG) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if _, err := g.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// fetchMetrics reads /v1/metrics through the typed client. Plan is
// non-nil on every daemon newTestDaemon builds (plan service on).
func fetchMetrics(t *testing.T, url string) *api.MetricsResponse {
	t.Helper()
	m, err := (&api.Client{BaseURL: url}).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIngestSnapshotRoundTrip(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 4)
	g.AddSample(edge(5, 6, 7), 8)

	resp := postProfile(t, ts.URL+api.PathIngest, g)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %s", resp.Status)
	}
	m := decodeJSON(t, resp)
	if m["merged_edges"].(float64) != 2 || m["store_weight"].(float64) != 12 {
		t.Errorf("ingest response %v", m)
	}

	back, err := (&api.Client{BaseURL: ts.URL}).FetchSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 2 || back.Weight(edge(1, 2, 3)) != 4 || back.Total() != 12 {
		t.Errorf("snapshot round trip wrong: %v", back.Dump(nil, nil))
	}
}

func TestIngestRejectsGarbageAndWrongMethod(t *testing.T) {
	ts, _ := newTestDaemon(t)
	resp, err := http.Post(ts.URL+api.PathIngest, "application/octet-stream", strings.NewReader("not a profile"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage ingest status %s, want 400", resp.Status)
	}
	resp, err = http.Get(ts.URL + api.PathIngest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status %s, want 405", resp.Status)
	}
	// The bad ingest is visible in metrics.
	mresp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, mresp)
	if m["ingest_errors"].(float64) != 1 {
		t.Errorf("ingest_errors = %v, want 1", m["ingest_errors"])
	}
}

// TestIngestRejectsOversizeBody: a push body above the configured cap
// is answered 413 (not 400, which retrying clients treat the same as
// any other malformed body) and leaves the store untouched — the
// MaxBytesReader guarantees the daemon never buffered the excess.
func TestIngestRejectsOversizeBody(t *testing.T) {
	multi := dcgstore.NewMulti(4)
	store := multi.Lookup(api.ProgramKey{})
	cfg := Config{MaxUploadBytes: 128}
	ts := httptest.NewServer(newServer(multi, compiledPlans{NewPlanService(cfg, multi, t.Logf)}, newFedState(), cfg.MaxUploadBytes, t.Logf).handler())
	t.Cleanup(ts.Close)

	big := profile.NewDCG()
	for i := 0; i < 100; i++ {
		big.AddSample(edge(i, i, i+1), 1)
	}
	for _, rq := range []struct {
		path string
		send func(*testing.T, string, *profile.DCG) *http.Response
	}{
		{api.PathIngest, postProfile},
		{api.PathOverlap, getProfile},
	} {
		resp := rq.send(t, ts.URL+rq.path, big)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize %s status %d, want 413", rq.path, resp.StatusCode)
		}
	}
	if n := store.Snapshot().NumEdges(); n != 0 {
		t.Errorf("oversize body merged %d edges", n)
	}

	// A small body still lands under the same cap.
	small := profile.NewDCG()
	small.AddSample(edge(1, 2, 3), 4)
	resp := postProfile(t, ts.URL+api.PathIngest, small)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small ingest under cap: status %d", resp.StatusCode)
	}
	m := decodeJSON(t, mustGet(t, ts.URL+api.PathMetrics))
	if m["ingest_errors"].(float64) != 1 {
		t.Errorf("ingest_errors = %v, want 1 (the oversize /ingest)", m["ingest_errors"])
	}
}

func TestTopSiteAndOverlapEndpoints(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 10, 2), 60)
	g.AddSample(edge(1, 10, 3), 30)
	g.AddSample(edge(4, 11, 5), 10)
	g.SetWindows(6)
	postProfile(t, ts.URL+api.PathIngest, g).Body.Close()

	resp, err := http.Get(ts.URL + api.PathTop + "?k=2")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, resp)
	if m["windows"].(float64) != 6 {
		t.Errorf("top reports %v windows, the store holds 6", m["windows"])
	}
	edges := m["edges"].([]any)
	if len(edges) != 2 {
		t.Fatalf("top k=2 returned %d edges", len(edges))
	}
	first := edges[0].(map[string]any)
	if first["weight"].(float64) != 60 || first["percent"].(float64) != 60 {
		t.Errorf("top edge %v", first)
	}

	resp, err = http.Get(ts.URL + api.PathSite + "?id=10")
	if err != nil {
		t.Fatal(err)
	}
	sm := decodeJSON(t, resp)
	if sm["site_weight_pc"].(float64) != 90 {
		t.Errorf("site weight = %v, want 90", sm["site_weight_pc"])
	}
	if targets := sm["targets"].([]any); len(targets) != 2 {
		t.Errorf("site targets = %v", targets)
	}
	if resp, _ := http.Get(ts.URL + api.PathSite + "?id=abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad site id status %d", resp.StatusCode)
	}

	// Overlap of the store against itself is 100.
	resp = getProfile(t, ts.URL+api.PathOverlap, g)
	om := decodeJSON(t, resp)
	if ov := om["overlap"].(float64); ov < 99.999 {
		t.Errorf("self overlap = %v, want 100", ov)
	}
}

func TestDecayEndpoint(t *testing.T) {
	ts, store := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 100)
	g.AddSample(edge(2, 2, 2), 1)
	postProfile(t, ts.URL+api.PathIngest, g).Body.Close()

	resp, err := http.Post(ts.URL+api.PathDecay+"?factor=0.5&prune=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, resp)
	if m["epoch"].(float64) != 1 || m["pruned_edges"].(float64) != 1 {
		t.Errorf("decay response %v", m)
	}
	if w := store.Snapshot().Weight(edge(1, 1, 1)); w != 50 {
		t.Errorf("post-decay weight %v", w)
	}
	if resp, _ := http.Post(ts.URL+api.PathDecay+"?factor=7", "", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("factor 7 accepted: %d", resp.StatusCode)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	ts, _ := newTestDaemon(t)
	resp, err := http.Get(ts.URL + api.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %q", body)
	}
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 5)
	postProfile(t, ts.URL+api.PathIngest, g).Body.Close()
	mresp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, mresp)
	for _, key := range []string{"edges", "total_weight", "samples_ingested", "merges", "ingests", "merge_ms_total", "merge_ms_mean", "uptime_s", "decay_epoch", "ingest_errors"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if m["edges"].(float64) != 1 || m["ingests"].(float64) != 1 || m["samples_ingested"].(float64) != 5 {
		t.Errorf("metrics %v", m)
	}
}

// TestMultiPusherConvergence is the runner-driven multi-VM soak: K
// concurrent pushers each run a real benchmark VM under CBS (distinct
// seeds), stream periodic delta snapshots to the daemon mid-run, and
// flush at the end. The daemon's merged DCG must be byte-identical
// (canonical serialization) to a serial Merge of the K final graphs.
func TestMultiPusherConvergence(t *testing.T) {
	const K = 8
	ts, _ := newTestDaemon(t)

	b := bench.ByName("compress")
	if b == nil {
		t.Fatal("compress benchmark missing")
	}

	finals, err := runner.Map(runner.New(K), make([]int, K), func(k int, _ int) (*profile.DCG, error) {
		prog, err := b.Compile()
		if err != nil {
			return nil, err
		}
		c := profiler.NewCBS(profiler.Config{
			Stride: 3, SamplesPerTick: 16,
			Flavour: profiler.FlavourRVM, Seed: int64(100 + k),
		})
		push := dcgstore.NewTickPusher(dcgstore.NewClient(ts.URL), "", c.Graph, 40)
		m := vm.New(prog)
		m.SetProfiler(c, push)
		m.SetTimer(50_000)
		if _, err := m.Run(b.SizeFor("small")); err != nil {
			return nil, err
		}
		// Final flush: whatever accumulated since the last mid-run push.
		if err := push.Flush(); err != nil {
			return nil, err
		}
		if push.Pushes() < 2 {
			return nil, fmt.Errorf("pusher %d sent only %d increments; periodic push never fired", k, push.Pushes())
		}
		return c.Graph, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	serial := profile.NewDCG()
	for _, g := range finals {
		serial.Merge(g)
	}

	merged, err := (&api.Client{BaseURL: ts.URL}).FetchSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var mb, sb bytes.Buffer
	if _, err := merged.WriteTo(&mb); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb.Bytes(), sb.Bytes()) {
		t.Errorf("daemon merge diverged from serial merge: %d edges/%v weight vs %d edges/%v weight",
			merged.NumEdges(), merged.Total(), serial.NumEdges(), serial.Total())
	}
	if merged.Total() == 0 {
		t.Error("no samples reached the daemon")
	}
}

// TestTopClampsHugeK is the regression test for the /top allocation
// DoS: an attacker-chosen k must be clamped to the store's edge count
// before any slice is preallocated.
func TestTopClampsHugeK(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 3)
	g.AddSample(edge(2, 2, 2), 2)
	g.AddSample(edge(3, 3, 3), 1)
	postProfile(t, ts.URL+api.PathIngest, g).Body.Close()

	resp, err := http.Get(ts.URL + api.PathTop + "?k=1000000000")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top k=1e9 status %s", resp.Status)
	}
	m := decodeJSON(t, resp)
	if edges := m["edges"].([]any); len(edges) != 3 {
		t.Errorf("top k=1e9 returned %d edges, want 3", len(edges))
	}
}

// TestReadEndpointsRejectNonGET covers the method hardening on the
// read-only surface: POSTing a pure read is a 405 with the envelope.
func TestReadEndpointsRejectNonGET(t *testing.T) {
	ts, _ := newTestDaemon(t)
	for _, path := range []string{api.PathSnapshot, api.PathTop, api.PathSite + "?id=1", api.PathMetrics, api.PathHealthz} {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET" {
			t.Errorf("POST %s Allow header %q, want GET", path, allow)
		}
		m := decodeJSON(t, resp)
		if m["code"] != "method_not_allowed" {
			t.Errorf("POST %s envelope code %v, want method_not_allowed", path, m["code"])
		}
	}
}

// TestOverlapIsGetOnly: with the legacy aliases gone, /v1/overlap's
// one-release POST tolerance is gone too — the documented GET (with a
// request body, like a search) works, and every other method is a 405
// advertising GET alone.
func TestOverlapIsGetOnly(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 4)
	postProfile(t, ts.URL+api.PathIngest, g).Body.Close()

	resp := getProfile(t, ts.URL+api.PathOverlap, g)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET overlap status %s", resp.Status)
	}
	m := decodeJSON(t, resp)
	if ov := m["overlap"].(float64); ov < 99.999 {
		t.Errorf("self overlap = %v, want 100", ov)
	}

	for _, method := range []string{http.MethodPost, http.MethodDelete} {
		req, err := http.NewRequest(method, ts.URL+api.PathOverlap, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s overlap status %d, want 405", method, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET" {
			t.Errorf("%s overlap Allow header %q, want GET", method, allow)
		}
		resp.Body.Close()
	}
}

// TestMutatingEndpointsRejectGET: /decay mutates, so reading it is a
// 405 carrying the envelope and an Allow: POST.
func TestMutatingEndpointsRejectGET(t *testing.T) {
	ts, store := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 100)
	postProfile(t, ts.URL+api.PathIngest, g).Body.Close()

	resp, err := http.Get(ts.URL + api.PathDecay + "?factor=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /decay status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "POST" {
		t.Errorf("GET /decay Allow header %q, want POST", allow)
	}
	m := decodeJSON(t, resp)
	if m["code"] != "method_not_allowed" {
		t.Errorf("GET /decay envelope code %v, want method_not_allowed", m["code"])
	}
	if w := store.Snapshot().Weight(edge(1, 1, 1)); w != 100 {
		t.Errorf("GET /decay mutated the store: weight %v, want 100", w)
	}
}

// TestUnversionedPathsAreNotRoutes: /v1 is the only spelling of a route.
// The flat paths daemons served before versioning get what any unknown
// path gets — the mux's plain 404, no envelope, no hint.
func TestUnversionedPathsAreNotRoutes(t *testing.T) {
	ts, _ := newTestDaemon(t)
	for _, path := range []string{"/ingest", "/plan", "/snapshot", "/healthz", "/no-such-thing"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || string(body) != "404 page not found\n" {
			t.Errorf("GET %s: %d %q, want the mux's plain 404", path, resp.StatusCode, body)
		}
	}
}

// TestIngestRefusesTextProfile: the line-oriented text format that
// predated DCGB used to be sniffed and merged by the ingest path. It is
// a malformed payload like any other now: 400 naming the magic, nothing
// merged, and counted as an ingest error.
func TestIngestRefusesTextProfile(t *testing.T) {
	ts, store := newTestDaemon(t)
	resp, err := http.Post(ts.URL+api.PathIngest, "application/octet-stream", strings.NewReader("dcg v1\nedge 7 8 9 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("text ingest status %s, want 400", resp.Status)
	}
	if m := decodeJSON(t, resp); !strings.Contains(fmt.Sprint(m["msg"]), "bad profile magic") {
		t.Errorf("text ingest error %v does not say bad profile magic", m)
	}
	if n := store.Snapshot().NumEdges(); n != 0 {
		t.Errorf("text ingest merged %d edges", n)
	}
}

// postStamped posts g to /ingest under a (pusher, seq) stamp.
func postStamped(t *testing.T, url string, g *profile.DCG, pusher, seq string) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if _, err := g.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+api.PathIngest, &body)
	if err != nil {
		t.Fatal(err)
	}
	if pusher != "" {
		req.Header.Set(api.HeaderPusher, pusher)
	}
	if seq != "" {
		req.Header.Set(api.HeaderSeq, seq)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestDeduplicatesStampedRetries: the same (pusher, seq) posted
// twice — a retry whose first response was lost — must be acknowledged
// but merged only once.
func TestIngestDeduplicatesStampedRetries(t *testing.T) {
	ts, store := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 10)

	first := decodeJSON(t, postStamped(t, ts.URL, g, "vm-1", "1"))
	if first["applied"] != true || first["duplicate"] != false {
		t.Errorf("first stamped ingest response %v", first)
	}
	second := decodeJSON(t, postStamped(t, ts.URL, g, "vm-1", "1"))
	if second["applied"] != false || second["duplicate"] != true {
		t.Errorf("retried stamped ingest response %v", second)
	}
	if w := store.Snapshot().Weight(edge(1, 2, 3)); w != 10 {
		t.Errorf("weight after retry = %v, want 10 (double count)", w)
	}

	mresp, err := http.Get(ts.URL + api.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, mresp)
	if m["ingest_duplicates"].(float64) != 1 || m["pushers"].(float64) != 1 {
		t.Errorf("metrics duplicates/pushers = %v/%v, want 1/1", m["ingest_duplicates"], m["pushers"])
	}
}

// TestIngestRejectsMalformedStamps: bad idempotency headers are 400s,
// not silent fallbacks to at-least-once.
func TestIngestRejectsMalformedStamps(t *testing.T) {
	ts, store := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 1)
	cases := []struct{ pusher, seq string }{
		{"vm 1", "1"},  // space in pusher id
		{"vm-1", "x"},  // non-numeric sequence
		{"vm-1", "0"},  // sequences start at 1
		{"vm-1", "-3"}, // negative
		{"vm-1", ""},   // pusher without sequence
		{"", "5"},      // sequence without pusher
	}
	for _, c := range cases {
		resp := postStamped(t, ts.URL, g, c.pusher, c.seq)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("pusher=%q seq=%q status %d, want 400", c.pusher, c.seq, resp.StatusCode)
		}
	}
	if n := store.Snapshot().NumEdges(); n != 0 {
		t.Errorf("malformed stamps merged %d edges", n)
	}
}

// brokenWriter is a ResponseWriter whose client has hung up.
type brokenWriter struct{ header http.Header }

func (w *brokenWriter) Header() http.Header       { return w.header }
func (w *brokenWriter) WriteHeader(int)           {}
func (w *brokenWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// A response that cannot be encoded is reported through the logger the
// daemon was configured with — not the process-wide one, which an
// in-process node's owner cannot capture or silence — and only once. An
// operator read and a push's compact ack are written by the same code.
func TestEncodeFailureGoesToConfiguredLoggerOnce(t *testing.T) {
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 10)
	for _, r := range []struct {
		method, path string
		body         []byte
	}{{http.MethodGet, api.PathMetrics, nil}, {http.MethodPost, api.PathIngest, g.Encode()}} {
		var lines []string
		logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		h := newServer(dcgstore.NewMulti(2), nil, newFedState(), 0, logf).handler()
		for i := 0; i < 3; i++ {
			h.ServeHTTP(&brokenWriter{header: http.Header{}}, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
		}
		if len(lines) != 1 || !strings.Contains(lines[0], "response encode failed") || !strings.Contains(lines[0], io.ErrClosedPipe.Error()) {
			t.Fatalf("three failed %s responses logged %q, want one line naming the encode failure", r.path, lines)
		}
	}
}

// TestIngestLatCountsIngestsOnly: ingest_lat times pushes that reached
// the store, applied or duplicate. A push refused at the door — a bad
// stamp, half a build key, a body that is not a profile — takes
// microseconds and is already counted in ingest_errors; observing it too
// let a burst of 400s drag ingest_lat.p50 toward zero while real pushes
// were as slow as ever.
func TestIngestLatCountsIngestsOnly(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 10)
	for seq := 1; seq <= 10; seq++ {
		postStamped(t, ts.URL, g, "vm-1", fmt.Sprint(seq)).Body.Close()
	}
	postStamped(t, ts.URL, g, "vm-1", "10").Body.Close() // a retry: duplicate, still an ingest

	refused := []*http.Request{}
	for _, hdr := range [][2]string{
		{api.HeaderPusher, "no spaces allowed"},
		{api.HeaderSeq, "0"},
		{api.HeaderProgram, "compress"}, // no version beside it
	} {
		var body bytes.Buffer
		if _, err := g.WriteTo(&body); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathIngest, &body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(hdr[0], hdr[1])
		refused = append(refused, req)
	}
	for _, body := range []string{"not a profile", "DCGB"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+api.PathIngest, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		refused = append(refused, req)
	}
	for _, req := range refused {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("refused push answered %s, want 400", resp.Status)
		}
	}

	m := fetchMetrics(t, ts.URL)
	if m.Ingests != 11 || m.IngestErrors != 5 || m.IngestDups != 1 {
		t.Errorf("ingests %d, ingest_errors %d, duplicates %d; want 11, 5, 1", m.Ingests, m.IngestErrors, m.IngestDups)
	}
	if m.IngestLat == nil || uint64(m.IngestLat.Count) != m.Ingests {
		t.Errorf("ingest_lat %+v, want count %d: one observation per ingest, none per refusal", m.IngestLat, m.Ingests)
	}
}
