package federation

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"sync"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Forwarder streams a leaf store's accumulated weight upstream to the
// root as stamped, exactly-once increments — the leaf-side half of the
// federation tentpole. The leaf store is keyed from the start and so is
// the forwarder: one stream per api.ProgramKey, the zero key's (pushes
// that carried no program identity) among them, each forwarded to the
// same substore at the root so version isolation survives federation
// end to end. It is a DeltaPusher grown a write-ahead state file: every
// capture is persisted *before* the first push attempt, so a leaf that
// crashes after a push whose response was lost re-sends the identical
// frozen increment on restart and the root deduplicates it by (pusher,
// seq) — weight can neither vanish nor double-count across a leaf
// restart.
//
// Crash matrix, the same for every stream (state file replaced
// atomically, atomicfile.Write):
//
//   - crash before capture persists: the weight is still in the
//     store snapshot; the next capture picks it up under a new seq.
//   - crash after capture persists, before/through the push: the
//     increment is in pending; restart re-sends it verbatim. If the
//     push had actually landed, the root drops it as a duplicate.
//   - crash after the ack persists: nothing outstanding.
//
// The store snapshots the forwarder captures from must never shrink
// (leaves do not decay locally — decay is the root's job), and on a
// graceful restart the leaf checkpoints its store alongside this
// state, so each restored snapshot is always >= its persisted capture
// baseline.
type Forwarder struct {
	// ID is the leaf's upstream pusher identity.
	id string
	// upstream is the api client aimed at the root.
	upstream *api.Client
	// source returns a consistent snapshot of every leaf substore.
	source func() map[api.ProgramKey]*profile.DCG
	// manifests returns the leaf's registered manifests in registration
	// order, for upward relay; nil skips manifest relay.
	manifests func() []*bytecode.Manifest
	// statePath, when non-empty, persists the write-ahead state.
	statePath string

	mu sync.Mutex
	// last is each stream's snapshot baseline at its previous capture.
	// Baselines are replaced, never mutated, so a shallow copy of the
	// map is a rollback point.
	last map[api.ProgramKey]*profile.DCG
	// seq is the last allocated sequence number. One counter stamps
	// every stream: the root deduplicates per substore against a
	// per-pusher high-water mark, and each stream sees a strictly
	// increasing subsequence of one counter.
	seq uint64
	// pending holds captured-but-unacknowledged increments in
	// sequence order, frozen (bytes never change once stamped).
	pending []stampedDelta
	// acked accumulates, per stream, every increment the root
	// acknowledged — by construction exactly the graph the root owes
	// this leaf for that stream.
	acked map[api.ProgramKey]*profile.DCG
	// sentManifests records which manifests the root has acknowledged;
	// relay is at-least-once and the root registers idempotently.
	sentManifests map[api.ProgramKey]bool

	forwards uint64
	errs     uint64
}

// stampedDelta is one frozen increment, bound for the root substore
// under key.
type stampedDelta struct {
	seq   uint64
	key   api.ProgramKey
	delta *profile.DCG
}

// ForwarderConfig configures a leaf's upstream forwarder.
type ForwarderConfig struct {
	// ID is the leaf's upstream pusher identity. Required unless a
	// state file already records one.
	ID string
	// Upstream is the api client aimed at the root. Required.
	Upstream *api.Client
	// Source returns a consistent snapshot of every leaf substore by
	// key (dcgstore.Multi.Snapshots). Required.
	Source func() map[api.ProgramKey]*profile.DCG
	// Manifests returns the leaf's registered manifests in
	// registration order, relayed upstream (before any deltas) so the
	// root can run its own carry-forward. Optional.
	Manifests func() []*bytecode.Manifest
	// StatePath, when non-empty, persists the forwarder's write-ahead
	// state (capture baselines, sequence counter, pending increments)
	// across restarts. Without it a restarted leaf would re-forward
	// its whole restored store under fresh stamps.
	StatePath string
}

// NewForwarder returns a forwarder, restoring persisted state from
// cfg.StatePath when the file exists. A persisted identity must match
// cfg.ID (the sequence stream belongs to the identity); cfg.ID may be
// empty to adopt the persisted one.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("federation: forwarder needs an upstream client")
	}
	if cfg.Source == nil {
		return nil, errors.New("federation: forwarder needs a store source")
	}
	f := &Forwarder{
		id:            cfg.ID,
		upstream:      cfg.Upstream,
		source:        cfg.Source,
		manifests:     cfg.Manifests,
		statePath:     cfg.StatePath,
		last:          make(map[api.ProgramKey]*profile.DCG),
		acked:         make(map[api.ProgramKey]*profile.DCG),
		sentManifests: make(map[api.ProgramKey]bool),
	}
	if cfg.StatePath != "" {
		if err := f.restore(cfg.StatePath, cfg.ID); err != nil {
			return nil, err
		}
	}
	if f.id == "" {
		// Fresh leaf with no configured identity: mint a random one
		// (persisted on first flush, so restarts keep the stream).
		f.id = newLeafID()
	}
	return f, nil
}

// newLeafID mints a random upstream identity for a leaf that was not
// given one. Random, not host-derived: two leaves colliding in the
// root's sequence table would have increments silently dropped as
// duplicates of each other's.
func newLeafID() string {
	var b [8]byte
	crand.Read(b[:]) // rand.Read never fails on supported platforms
	return "leaf-" + hex.EncodeToString(b[:])
}

// ID returns the leaf's upstream pusher identity.
func (f *Forwarder) ID() string { return f.id }

// Flush relays any newly registered manifests, captures the weight
// every substore accumulated since its previous capture as new stamped
// increments (in canonical key order), persists the state, then
// pushes every pending increment upstream in order. A flush with
// nothing new and nothing pending is a no-op. The returned response
// reports what this flush captured and what remains pending (non-zero
// only when an upstream push failed; those increments stay frozen for
// the next flush).
func (f *Forwarder) Flush() (api.FlushResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	resp := api.FlushResponse{}

	// Manifests go first, in registration order, so the root learns a
	// build's succession (and runs its carry-forward) before that
	// build's deltas arrive. At-least-once: a relay whose response was
	// lost re-sends, and the root registers idempotently.
	if f.manifests != nil {
		for _, man := range f.manifests() {
			key := api.ProgramKey{Program: man.Program, Version: man.Version}
			if f.sentManifests[key] {
				continue
			}
			if _, err := f.upstream.PushManifest(key, man.Encode()); err != nil {
				f.errs++
				resp.Pending = len(f.pending)
				resp.Seq = f.ackedSeqLocked()
				return resp, fmt.Errorf("federation: relay manifest %s: %w", key.String(), err)
			}
			f.sentManifests[key] = true
			if err := f.persistLocked(); err != nil {
				// The relay landed; a stale sent-set only means one
				// redundant (idempotent) re-register after a crash.
				f.errs++
			}
		}
	}

	// Capture phase: one write-ahead persist covers every stream's
	// capture. The baselines advance in a copy of the map, so a failed
	// persist rolls back by dropping the copy.
	prev, seq0, pending0 := f.last, f.seq, len(f.pending)
	f.last = maps.Clone(prev)
	cur := f.source()
	for _, k := range api.SortedKeys(cur) {
		delta := cur[k].DeltaSince(prev[k])
		if delta.NumEdges() == 0 {
			continue
		}
		f.seq++
		f.pending = append(f.pending, stampedDelta{seq: f.seq, key: k, delta: delta})
		f.last[k] = cur[k].Clone()
		resp.Edges += delta.NumEdges()
		resp.Weight += delta.Total()
	}
	if f.seq > seq0 {
		// Write-ahead: the captures must hit disk before the first push
		// attempt, or a crash after a successful push would re-capture
		// and double-send this weight under new stamps.
		if err := f.persistLocked(); err != nil {
			// Roll every capture back to its PRIOR baseline, so the next
			// flush re-captures exactly these deltas (plus anything
			// newer) under the same seqs. Dropping a baseline instead
			// would re-capture the whole stream — weight the root
			// already acknowledged under earlier seqs, double-counted
			// under fresh stamps.
			f.last, f.seq, f.pending = prev, seq0, f.pending[:pending0]
			f.errs++
			resp.Edges, resp.Weight = 0, 0
			return resp, fmt.Errorf("federation: persist capture: %w", err)
		}
	}

	for len(f.pending) > 0 {
		head := f.pending[0]
		if _, err := f.upstream.PushDeltaKeyed(f.id, head.seq, head.key, head.delta.Encode()); err != nil {
			f.errs++
			resp.Pending = len(f.pending)
			resp.Seq = f.ackedSeqLocked()
			return resp, fmt.Errorf("federation: forward seq %d: %w", head.seq, err)
		}
		f.pending = f.pending[1:]
		if f.acked[head.key] == nil {
			f.acked[head.key] = profile.NewDCG()
		}
		f.acked[head.key].Merge(head.delta)
		f.forwards++
		if err := f.persistLocked(); err != nil {
			// The ack is applied in memory; a stale state file only
			// means a redundant (deduplicated) re-send after a crash.
			f.errs++
			resp.Pending = len(f.pending)
			resp.Seq = f.ackedSeqLocked()
			return resp, fmt.Errorf("federation: persist ack: %w", err)
		}
	}
	resp.Forwarded = true
	resp.Seq = f.seq
	return resp, nil
}

// ackedSeqLocked returns the highest acknowledged sequence: the seq
// just below the oldest pending increment, or the counter itself when
// nothing is pending.
func (f *Forwarder) ackedSeqLocked() uint64 {
	if len(f.pending) > 0 {
		return f.pending[0].seq - 1
	}
	return f.seq
}

// Acknowledged returns a clone of the cumulative graph the root has
// acknowledged from this leaf for key's stream — what the conservation
// checker holds the root accountable for; an empty graph when the root
// has acknowledged nothing for that stream.
func (f *Forwarder) Acknowledged(key api.ProgramKey) *profile.DCG {
	f.mu.Lock()
	defer f.mu.Unlock()
	if g := f.acked[key]; g != nil {
		return g.Clone()
	}
	return profile.NewDCG()
}

// ackedSizeLocked sums the acknowledged graphs of every stream (in key
// order, so the float sum is reproducible).
func (f *Forwarder) ackedSizeLocked() (edges int, weight float64) {
	for _, k := range api.SortedKeys(f.acked) {
		edges += f.acked[k].NumEdges()
		weight += f.acked[k].Total()
	}
	return edges, weight
}

// Pending reports how many captured increments await acknowledgement.
func (f *Forwarder) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pending)
}

// Status returns the leaf's registration/heartbeat body.
func (f *Forwarder) Status(addr string) api.LeafStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	edges, weight := f.ackedSizeLocked()
	return api.LeafStatus{
		ID:     f.id,
		Addr:   addr,
		Seq:    f.ackedSeqLocked(),
		Edges:  edges,
		Weight: weight,
	}
}

// Metrics returns the forwarder's /metrics section.
func (f *Forwarder) Metrics() *api.ForwardMetrics {
	f.mu.Lock()
	defer f.mu.Unlock()
	edges, weight := f.ackedSizeLocked()
	return &api.ForwardMetrics{
		Seq:       f.seq,
		Pending:   len(f.pending),
		Forwards:  f.forwards,
		Errors:    f.errs,
		AckEdges:  edges,
		AckWeight: weight,
	}
}

// forwarderState is the on-disk write-ahead state. Graph payloads are
// the canonical DCGB wire format (base64 in JSON). The layout predates
// keyed streams, so the zero key's baseline and acked graph sit in
// top-level fields and every other stream's in Keyed; setStream and
// streams are the only code that knows.
type forwarderState struct {
	ID      string         `json:"id"`
	Seq     uint64         `json:"seq"`
	Last    []byte         `json:"last,omitempty"`
	Acked   []byte         `json:"acked,omitempty"`
	Pending []pendingState `json:"pending,omitempty"`
	// Keyed is in canonical key order; SentManifests lists the
	// manifests the root has already acknowledged.
	Keyed         []streamState    `json:"keyed,omitempty"`
	SentManifests []api.ProgramKey `json:"sent_manifests,omitempty"`
}

type pendingState struct {
	Seq uint64 `json:"seq"`
	// Program/Version name the target substore (both empty: the zero
	// key's).
	Program string `json:"program,omitempty"`
	Version string `json:"version,omitempty"`
	Delta   []byte `json:"delta"`
}

// streamState is one stream's capture baseline and acked graph.
type streamState struct {
	Program string `json:"program"`
	Version string `json:"version"`
	Last    []byte `json:"last,omitempty"`
	Acked   []byte `json:"acked,omitempty"`
}

func (st *forwarderState) setStream(ss streamState) {
	if ss.Program == "" && ss.Version == "" {
		st.Last, st.Acked = ss.Last, ss.Acked
		return
	}
	st.Keyed = append(st.Keyed, ss)
}

func (st *forwarderState) streams() []streamState {
	return append([]streamState{{Last: st.Last, Acked: st.Acked}}, st.Keyed...)
}

// persistLocked replaces the state file atomically, a no-op without a
// StatePath.
func (f *Forwarder) persistLocked() error {
	if f.statePath == "" {
		return nil
	}
	st := forwarderState{ID: f.id, Seq: f.seq}
	for _, p := range f.pending {
		st.Pending = append(st.Pending, pendingState{
			Seq: p.seq, Program: p.key.Program, Version: p.key.Version, Delta: p.delta.Encode(),
		})
	}
	// Every acked stream has a baseline (an increment is captured, which
	// sets the baseline, before it can be acknowledged), so the
	// baselines' keys are all the streams there are.
	for _, k := range api.SortedKeys(f.last) {
		ss := streamState{Program: k.Program, Version: k.Version, Last: f.last[k].Encode()}
		if g := f.acked[k]; g != nil && g.NumEdges() > 0 {
			ss.Acked = g.Encode()
		}
		st.setStream(ss)
	}
	st.SentManifests = api.SortedKeys(f.sentManifests)
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return atomicfile.Write(f.statePath, bytes.NewReader(data))
}

// restore loads persisted state; a missing file is a fresh start.
func (f *Forwarder) restore(path, wantID string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var st forwarderState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("federation: corrupt forwarder state %s: %w", path, err)
	}
	if wantID != "" && st.ID != wantID {
		return fmt.Errorf("federation: forwarder state %s belongs to %q, not %q (sequence streams are per identity)",
			path, st.ID, wantID)
	}
	f.id = st.ID
	f.seq = st.Seq
	for _, p := range st.Pending {
		d, err := profile.DecodeDCGBytes(p.Delta)
		if err != nil {
			return fmt.Errorf("federation: corrupt pending increment %d in %s: %w", p.Seq, path, err)
		}
		f.pending = append(f.pending, stampedDelta{
			seq: p.Seq, key: api.ProgramKey{Program: p.Program, Version: p.Version}, delta: d,
		})
	}
	for _, ss := range st.streams() {
		key := api.ProgramKey{Program: ss.Program, Version: ss.Version}
		// A stream that has captured or acknowledged nothing has no bytes.
		if len(ss.Last) > 0 {
			if f.last[key], err = profile.DecodeDCGBytes(ss.Last); err != nil {
				return fmt.Errorf("federation: corrupt capture baseline %s in %s: %w", key.String(), path, err)
			}
		}
		if len(ss.Acked) > 0 {
			if f.acked[key], err = profile.DecodeDCGBytes(ss.Acked); err != nil {
				return fmt.Errorf("federation: corrupt acked graph %s in %s: %w", key.String(), path, err)
			}
		}
	}
	for _, k := range st.SentManifests {
		f.sentManifests[k] = true
	}
	return nil
}
