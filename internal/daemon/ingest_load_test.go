package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// keyedDelta is one push body and the build it is stamped with.
type keyedDelta struct {
	key  api.ProgramKey
	body []byte
}

// realDeltas runs one suite program under CBS, an iteration at a time,
// and returns what each of the first n iterations sampled, encoded as a
// pusher would send it.
func realDeltas(tb testing.TB, name string, n int) []keyedDelta {
	tb.Helper()
	b := bench.ByName(name)
	prog, err := b.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	key := api.ProgramKey{Program: name, Version: prog.Version()}
	cbs := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: 1})
	m := vm.New(prog)
	m.SetProfiler(cbs)
	m.SetTimer(20_000)
	iter, err := bench.Setup(m, b.SizeFor("small"))
	if err != nil {
		tb.Fatal(err)
	}
	prev := cbs.Graph.Clone()
	var out []keyedDelta
	for len(out) < n {
		if _, err := m.Call(iter); err != nil {
			tb.Fatal(err)
		}
		out = append(out, keyedDelta{key, cbs.Graph.DeltaSince(prev).Encode()})
		prev = cbs.Graph.Clone()
	}
	return out
}

// loadedDaemon drives a daemon's handler in-process in the shape of the
// repo benchmark's fleet workloads: a fixed set of real deltas for
// three builds in turn, 64 pusher ids in turn with rising sequence
// numbers; scrapeEvery pushes apart, a /v1/metrics scrape.
type loadedDaemon struct {
	h       http.Handler
	deltas  []keyedDelta
	pushers [64]string
	seqs    [64]uint64
	pushes  int
}

const scrapeEvery = 50

// newLoadedDaemon returns a daemon that has served warm pushes.
func newLoadedDaemon(tb testing.TB, warm int) *loadedDaemon {
	d := new(loadedDaemon)
	d.h, _ = newTestHandler(tb)
	for _, name := range []string{"javac", "jess", "compress"} {
		d.deltas = append(d.deltas, realDeltas(tb, name, 8)...)
	}
	for i := range d.pushers {
		d.pushers[i] = fmt.Sprintf("load-p%02d", i)
	}
	for d.pushes < warm {
		d.push(tb)
	}
	return d
}

func (d *loadedDaemon) get(tb testing.TB, path string) {
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
	}
}

// next stamps the next push: its delta, pusher and sequence number.
func (d *loadedDaemon) next() (delta keyedDelta, pusher string, seq uint64) {
	slot := d.pushes % len(d.seqs)
	delta = d.deltas[d.pushes%len(d.deltas)]
	d.seqs[slot]++
	d.pushes++
	return delta, d.pushers[slot], d.seqs[slot]
}

func (d *loadedDaemon) push(tb testing.TB) *httptest.ResponseRecorder {
	delta, pusher, seq := d.next()
	req := httptest.NewRequest(http.MethodPost, api.PathIngest, bytes.NewReader(delta.body))
	req.Header.Set(api.HeaderPusher, pusher)
	req.Header.Set(api.HeaderSeq, strconv.FormatUint(seq, 10))
	req.Header.Set(api.HeaderProgram, delta.key.Program)
	req.Header.Set(api.HeaderProgramVersion, delta.key.Version)
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("push %d: %d %s", d.pushes, rec.Code, rec.Body)
	}
	return rec
}

// TestIngestAckIsCompact: a push is acknowledged in json.Marshal's
// layout and the newline an Encoder ends with, not indented: its reader
// is the pusher's client. The operator reads stay indented
// (TestMetricsShapePinned).
func TestIngestAckIsCompact(t *testing.T) {
	d := newLoadedDaemon(t, 0)
	for range d.deltas {
		body := d.push(t).Body.Bytes()
		var resp api.IngestResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("ack %q: %v", body, err)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(want)+"\n" {
			t.Fatalf("ack %q, want %q", body, string(want)+"\n")
		}
	}
}

// maxIngestAllocs is what one push through the handler allocates at
// most, request and recorder included (go1.24): 41 before the ack was
// compact and the decoded graph's map was sized from its header.
const maxIngestAllocs = 31

// TestIngestHandlerAllocs holds BenchmarkIngestHandler's allocations to
// maxIngestAllocs.
func TestIngestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	d := newLoadedDaemon(t, 1000)
	if a := testing.AllocsPerRun(200, func() { d.push(t) }); a > maxIngestAllocs {
		t.Errorf("a push allocates %v times, want at most %d", a, maxIngestAllocs)
	}
}

// TestIngestHeapIsFlat: what the daemon keeps does not grow with the
// number of pushes it has served, only with the builds, edges and
// pushers it has seen — all of which the first 20 000 pushes here have
// shown it. A table with a row per request shows as a slope.
func TestIngestHeapIsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("120 000 pushes")
	}
	d := newLoadedDaemon(t, 0)
	heapAfter := func(pushes int) int64 {
		for d.pushes < pushes {
			d.push(t)
			if d.pushes%scrapeEvery == 0 {
				d.get(t, api.PathMetrics)
			}
		}
		runtime.GC()
		runtime.GC() // the second empties the sync.Pools the first retired
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	early := heapAfter(20_000)
	late := heapAfter(120_000)
	runtime.KeepAlive(d) // or the second figure is the heap without the daemon
	grew := late - early
	t.Logf("live heap grew by %d bytes over the last 100 000 pushes", grew)
	if grew > 256<<10 {
		t.Errorf("live heap %d bytes after 20 000 pushes, %d after 120 000: grew by %d, want within 256 KB", early, late, grew)
	}
}

// BenchmarkMetricsHandler is one /v1/metrics scrape of a daemon that
// has served n pushes, with the pushes fleet_mixed puts between two
// scrapes served off the clock: the handler under daemon.metrics_ms_p50.
// A scrape reports a fixed number of figures, so it must cost the same
// after 1e5 pushes as after 1e3.
func BenchmarkMetricsHandler(b *testing.B) {
	for _, c := range []struct {
		name   string
		pushes int
	}{{"after_1e3_pushes", 1e3}, {"after_1e5_pushes", 1e5}} {
		b.Run(c.name, func(b *testing.B) {
			d := newLoadedDaemon(b, c.pushes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < scrapeEvery; j++ {
					d.push(b)
				}
				b.StartTimer()
				d.get(b, api.PathMetrics)
			}
		})
	}
}

// BenchmarkIngestHandler is one stamped, keyed push of a real delta
// through the handler: what daemon.ingest_handler_p50_ms times, without
// the socket.
func BenchmarkIngestHandler(b *testing.B) {
	d := newLoadedDaemon(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(b)
	}
}

// BenchmarkPushRoundTrip is one push as a pusher makes it:
// api.Client.PushDeltaKeyed of a real delta, stamped and keyed, to the
// handler over loopback, ack read. The twin of the repo benchmark's
// api.push_rtt_p50_ms and fleet_ingest's latency_ms; its gap to
// BenchmarkIngestHandler is the client and the socket.
func BenchmarkPushRoundTrip(b *testing.B) {
	d := newLoadedDaemon(b, 1000)
	srv := httptest.NewServer(d.h)
	defer srv.Close()
	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	c := &api.Client{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: tr}, Retries: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta, pusher, seq := d.next()
		if ack, err := c.PushDeltaKeyed(pusher, seq, delta.key, delta.body); err != nil || !ack.Applied {
			b.Fatalf("push %d: %+v, %v", d.pushes, ack, err)
		}
	}
}

// BenchmarkTopHandler is /v1/top?k=20 over the merged view of three
// builds: the handler under daemon.top_ms_p50.
func BenchmarkTopHandler(b *testing.B) {
	d := newLoadedDaemon(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.get(b, api.PathTop+"?k=20")
	}
}
