package daemon

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
)

// startDaemon runs the full daemon lifecycle (run, the same function
// main drives) under ctx and returns its bound address plus a channel
// carrying run's result.
func startDaemon(t *testing.T, ctx context.Context, stateDir string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	cfg := Config{
		Addr:            "127.0.0.1:0",
		StateDir:        stateDir,
		CheckpointEvery: time.Hour, // only the shutdown checkpoint matters here
		ReadTimeout:     10 * time.Second,
		WriteTimeout:    10 * time.Second,
		Ready:           ready,
		Logf:            t.Logf,
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

func fetchSnapshotBytes(t *testing.T, baseURL string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + api.PathSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSigtermCheckpointAndRestart is the acceptance test for the
// durability tentpole: a daemon killed with SIGTERM writes a final
// checkpoint, and a restart with the same -state-dir serves a
// /snapshot byte-identical to the one before the kill — with the
// per-pusher ingest sequences intact, so a pre-kill increment retried
// after the restart is still deduplicated.
func TestSigtermCheckpointAndRestart(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")

	// First incarnation: catch SIGTERM exactly as main does.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	url, done := startDaemon(t, ctx, stateDir)

	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: 1, Site: 2, Callee: 3}, 40)
	g.AddSample(profile.Edge{Caller: 4, Site: 5, Callee: 6}, 2.5)
	client := dcgstore.NewClient(url)
	if err := client.PushDelta("vm-durable", 1, g); err != nil {
		t.Fatal(err)
	}
	g2 := profile.NewDCG()
	g2.AddSample(profile.Edge{Caller: 7, Site: 8, Callee: 9}, 11)
	if err := client.PushDelta("vm-durable", 2, g2); err != nil {
		t.Fatal(err)
	}
	before := fetchSnapshotBytes(t, url)

	// Kill the daemon the way an orchestrator would.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("daemon did not shut down after SIGTERM")
	}
	if _, err := os.Stat(filepath.Join(stateDir, dcgstore.CheckpointFile)); err != nil {
		t.Fatalf("no checkpoint after SIGTERM: %v", err)
	}

	// Second incarnation, same state dir.
	ctx2, cancel := context.WithCancel(context.Background())
	url2, done2 := startDaemon(t, ctx2, stateDir)
	after := fetchSnapshotBytes(t, url2)
	if !bytes.Equal(before, after) {
		t.Errorf("restarted /snapshot differs from the last checkpoint: %d vs %d bytes", len(after), len(before))
	}

	// A pusher retrying a pre-kill increment (it never saw the ack)
	// must still be deduplicated by the restarted daemon.
	client2 := dcgstore.NewClient(url2)
	if err := client2.PushDelta("vm-durable", 2, g2); err != nil {
		t.Fatal(err)
	}
	if got := fetchSnapshotBytes(t, url2); !bytes.Equal(before, got) {
		t.Error("retried pre-restart increment inflated the restored store")
	}
	// A genuinely new increment still lands.
	if err := client2.PushDelta("vm-durable", 3, g2); err != nil {
		t.Fatal(err)
	}
	restored, err := (&api.Client{BaseURL: url2}).FetchSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if w := restored.Weight(profile.Edge{Caller: 7, Site: 8, Callee: 9}); w != 22 {
		t.Errorf("post-restart weight = %v, want 22", w)
	}

	cancel()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second shutdown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("second daemon did not shut down")
	}
}

// TestRunRefusesCorruptCheckpoint: booting against a state dir it
// cannot read — a corrupt checkpoint, or the many-file layout of an
// earlier cbsd with no checkpoint.json — must fail loudly, naming the
// file, rather than serve an empty store that a later checkpoint would
// overwrite the good state with.
func TestRunRefusesCorruptCheckpoint(t *testing.T) {
	for _, name := range []string{dcgstore.CheckpointFile, "versions.json", "store.dcgb"} {
		stateDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(stateDir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		err := Run(ctx, Config{Addr: "127.0.0.1:0", StateDir: stateDir, Logf: t.Logf})
		cancel()
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("run on a state dir holding a bad %s returned %v, want an error naming it", name, err)
		}
	}
}

// TestListeningLineNamesTheCheckpointInterval: with no CheckpointEvery
// the daemon checkpoints every DefaultCheckpointEvery, and says so — it
// used to log "every 0s".
func TestListeningLineNamesTheCheckpointInterval(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, Config{Addr: "127.0.0.1:0", StateDir: t.TempDir(), Ready: ready,
			Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				lines = append(lines, fmt.Sprintf(format, args...))
			}})
	}()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := "every " + dcgstore.DefaultCheckpointEvery.String()
	if !slices.ContainsFunc(lines, func(l string) bool { return strings.Contains(l, "listening") && strings.Contains(l, want) }) {
		t.Errorf("no listening line says %q:\n%s", want, strings.Join(lines, "\n"))
	}
}
