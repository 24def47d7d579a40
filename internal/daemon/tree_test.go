package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// startTreeDaemon is startDaemon with federation knobs: an upstream
// turns the daemon into a leaf.
func startTreeDaemon(t *testing.T, ctx context.Context, cfg Config) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.ReadTimeout = 10 * time.Second
	cfg.WriteTimeout = 10 * time.Second
	cfg.Ready = ready
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	done := make(chan error, 1)
	go func() { done <- Run(ctx, cfg) }()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
		return "", nil
	}
}

// TestLeafForwardsToRoot runs a real two-daemon tree in-process: a
// pusher ingests at the leaf, /v1/flush drains the leaf upstream, and
// the weight lands at the root exactly once (a second flush with
// nothing new forwards nothing). The leaf registers with the root, and
// the leaf's /plan relays the root's compiled plan.
func TestLeafForwardsToRoot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	rootCfg := Config{PlanPolicy: "new-linear"}
	rootURL, rootDone := startTreeDaemon(t, ctx, rootCfg)

	leafURL, leafDone := startTreeDaemon(t, ctx, Config{
		Upstream:     rootURL,
		UpstreamID:   "leaf-test-0",
		SelfURL:      "http://leaf-0.test",
		ForwardEvery: time.Hour, // flush manually for determinism
	})

	// Ingest at the leaf under a pusher stamp.
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 40)
	g.AddSample(edge(4, 5, 6), 2)
	resp := postStamped(t, leafURL, g, "vm-0", "1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leaf ingest status %s", resp.Status)
	}
	resp.Body.Close()

	// Drain the leaf upstream.
	flushResp, err := http.Post(leafURL+api.PathFlush, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fr api.FlushResponse
	if err := json.NewDecoder(flushResp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	flushResp.Body.Close()
	if !fr.Forwarded || fr.Edges != 2 || fr.Weight != 42 {
		t.Fatalf("flush response %+v, want forwarded 2 edges / 42 weight", fr)
	}

	// The weight is at the root, once.
	rootGraph, err := (&api.Client{BaseURL: rootURL}).FetchSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rootGraph.Total() != 42 || rootGraph.NumEdges() != 2 {
		t.Fatalf("root holds %.0f weight / %d edges, want 42 / 2",
			rootGraph.Total(), rootGraph.NumEdges())
	}

	// An idle flush forwards nothing new and double-counts nothing.
	flushResp, err = http.Post(leafURL+api.PathFlush, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	fr = api.FlushResponse{}
	if err := json.NewDecoder(flushResp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	flushResp.Body.Close()
	if fr.Edges != 0 || fr.Pending != 0 {
		t.Fatalf("idle flush captured %d edges (%d pending), want 0", fr.Edges, fr.Pending)
	}
	rootGraph, err = (&api.Client{BaseURL: rootURL}).FetchSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rootGraph.Total() != 42 {
		t.Fatalf("root weight after idle flush %.0f, want 42", rootGraph.Total())
	}

	// The flush path registers nothing by itself; heartbeats do. Force
	// one by waiting for the registration the forward loop sent at
	// startup (it fires immediately, before the first tick).
	deadline := time.Now().Add(5 * time.Second)
	for {
		lr, err := (&api.Client{BaseURL: rootURL}).Leaves()
		if err != nil {
			t.Fatal(err)
		}
		if len(lr.Leaves) == 1 && lr.Leaves[0].ID == "leaf-test-0" {
			if lr.Leaves[0].Addr != "http://leaf-0.test" {
				t.Fatalf("registered addr %q", lr.Leaves[0].Addr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf never registered with root: %+v", lr.Leaves)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The leaf relays the root's plan: same body the root serves, with
	// the plan epoch header intact.
	rootPlan := getBody(t, rootURL+api.PathPlan+"?program=compress")
	leafPlan := getBody(t, leafURL+api.PathPlan+"?program=compress")
	if string(rootPlan) != string(leafPlan) {
		t.Errorf("leaf-relayed plan differs from root plan (%d vs %d bytes)",
			len(leafPlan), len(rootPlan))
	}

	// A program the root does not know 404s through the relay too.
	nf, err := http.Get(leafURL + api.PathPlan + "?program=no-such-benchmark")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown program via relay: status %d, want 404", nf.StatusCode)
	}

	// /v1/flush on the root (no upstream) is a 404 with the envelope.
	rf, err := http.Post(rootURL+api.PathFlush, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := decodeJSON(t, rf)
	if rf.StatusCode != http.StatusNotFound || m["code"] != "not_found" {
		t.Errorf("root /v1/flush: status %d code %v, want 404 not_found", rf.StatusCode, m["code"])
	}

	cancel()
	for _, done := range []<-chan error{leafDone, rootDone} {
		if err := <-done; err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	}
}

// TestTreeKeyedFleetFiguresAreNotZero: a fleet that stamps every push
// with a program identity puts nothing under the zero key, so any
// figure read from that substore alone sits at 0 forever. The leaf's
// heartbeat to the root (/v1/leaves), its forward.ack_* metrics and the
// root's periodic decay log line must all count the keyed streams.
func TestTreeKeyedFleetFiguresAreNotZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		logMu    sync.Mutex
		rootLogs []string
	)
	rootURL, rootDone := startTreeDaemon(t, ctx, Config{
		Decay: 0.99, DecayEvery: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			rootLogs = append(rootLogs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	leafURL, leafDone := startTreeDaemon(t, ctx, Config{
		Upstream:     rootURL,
		UpstreamID:   "leaf-keyed-0",
		ForwardEvery: 20 * time.Millisecond, // flush + heartbeat on the tick
	})

	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 40)
	g.AddSample(edge(4, 5, 6), 2)
	if err := keyedClient(leafURL, "compress", "00000000000000aa").PushDelta("vm-0", 1, g); err != nil {
		t.Fatal(err)
	}

	eventually := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	eventually("the leaf's heartbeat to report the keyed weight", func() bool {
		lr, err := (&api.Client{BaseURL: rootURL}).Leaves()
		if err != nil {
			t.Fatal(err)
		}
		return len(lr.Leaves) == 1 && lr.Leaves[0].Edges == 2 && lr.Leaves[0].Weight == 42
	})
	m, err := (&api.Client{BaseURL: leafURL}).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Forward == nil || m.Forward.AckEdges != 2 || m.Forward.AckWeight != 42 {
		t.Errorf("leaf forward metrics %+v, want 2 acked edges / 42 weight", m.Forward)
	}
	eventually("a root decay log line that counts the keyed edges", func() bool {
		logMu.Lock()
		defer logMu.Unlock()
		for _, line := range rootLogs {
			var epoch, pruned, remain int
			var factor float64
			if n, _ := fmt.Sscanf(line, "decay epoch %d: factor %g, pruned %d edges, %d remain",
				&epoch, &factor, &pruned, &remain); n == 4 && epoch > 0 && remain == 2 {
				return true
			}
		}
		return false
	})

	cancel()
	for _, done := range []<-chan error{leafDone, rootDone} {
		if err := <-done; err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	}
}

// TestLeafShutdownWithHungRoot: a root that accepts connections and
// never answers must not hold a leaf's shutdown hostage. Every upstream
// call a leaf makes (registration, the forward loop's flush, the final
// flush) gives up after the upstream timeout, so Run returns within two
// of them after its context ends — one for the call in flight, one for
// the final flush — and the final checkpoint holds what the leaf
// ingested. The test shortens the timeout to 200 ms.
func TestLeafShutdownWithHungRoot(t *testing.T) {
	setUpstreamTimeout(t, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		heldMu sync.Mutex
		held   []net.Conn
	)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	}()

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leafURL, done := startTreeDaemon(t, ctx, Config{
		Upstream:        "http://" + ln.Addr().String(),
		UpstreamID:      "leaf-hung-0",
		StateDir:        dir,
		CheckpointEvery: time.Hour, // only the final checkpoint
		ForwardEvery:    10 * time.Millisecond,
	})
	g := profile.NewDCG()
	g.AddSample(edge(1, 2, 3), 40)
	resp := postStamped(t, leafURL, g, "vm-0", "1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leaf ingest status %s", resp.Status)
	}

	cancel()
	deadline := 3 * upstreamTimeout
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("leaf exited with %v", err)
		}
	case <-time.After(deadline):
		t.Fatalf("leaf Run did not return within %s of its context ending", deadline)
	}
	restored := dcgstore.NewMulti(0)
	if ok, err := dcgstore.RestoreMultiCheckpoint(restored, dir); err != nil || !ok {
		t.Fatalf("final checkpoint: restored %v, err %v", ok, err)
	}
	if w := restored.MergedSnapshot().Total(); w != 40 {
		t.Errorf("final checkpoint holds weight %.0f, want 40", w)
	}
}

// TestPlanRelayDoesNotSerializeAcrossPrograms pins the relay's locking
// contract: no lock is held across the upstream round trip. One program
// whose root call is parked must not block another program's plan
// request, nor the Stats call /metrics makes.
func TestPlanRelayDoesNotSerializeAcrossPrograms(t *testing.T) {
	slowEntered := make(chan struct{})
	release := make(chan struct{})
	root := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		program := r.URL.Query().Get("program")
		if program == "slow" {
			close(slowEntered)
			<-release
		}
		p := &plan.Plan{Program: program, Policy: "new-linear", Epoch: 1}
		p.Hash = p.ContentHash()
		w.Header().Set("ETag", planETag(p))
		p.WriteTo(w)
	}))
	defer root.Close()
	// Deferred after Close, so it runs first: a failing test must not
	// leave Close waiting on the parked handler.
	var releaseOnce sync.Once
	releaseSlow := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseSlow()

	rl := &planRelay{client: plan.NewClient(root.URL)}
	slowDone := make(chan error, 1)
	go func() {
		_, _, err := rl.servePlan("slow", "")
		slowDone <- err
	}()
	<-slowEntered

	// With "slow" parked inside its upstream call, another program's
	// request and the metrics surface must both complete.
	fastDone := make(chan error, 1)
	go func() {
		_, _, err := rl.servePlan("fast", "")
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("PlanFor(fast): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PlanFor(fast) blocked behind the slow program's upstream round trip")
	}
	statsDone := make(chan struct{})
	go func() {
		rl.Stats()
		close(statsDone)
	}()
	select {
	case <-statsDone:
	case <-time.After(5 * time.Second):
		t.Fatal("relay metrics blocked behind the slow program's upstream round trip")
	}

	releaseSlow()
	if err := <-slowDone; err != nil {
		t.Fatalf("PlanFor(slow): %v", err)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
