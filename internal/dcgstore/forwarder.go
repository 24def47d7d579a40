package dcgstore

import (
	"bytes"
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
// root as stamped, exactly-once increments: a leaf is a big pusher. The
// leaf store is keyed from the start and so is the forwarder: one
// stream per api.ProgramKey, the zero key's (pushes that carried no
// program identity) among them, each forwarded to the same substore at
// the root so version isolation survives federation end to end.
//
// It is a DeltaPusher plus a write-ahead state file: every capture is
// persisted *before* the first push attempt, so a leaf that crashes
// after a push whose response was lost re-sends the identical frozen
// increment on restart and the root deduplicates it by (pusher, seq) —
// weight can neither vanish nor double-count across a leaf restart.
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
	// source returns a consistent snapshot of every leaf substore.
	source func() map[api.ProgramKey]*profile.DCG
	// manifests returns the leaf's registered manifests in registration
	// order, for upward relay; nil skips manifest relay.
	manifests func() []*bytecode.Manifest
	// statePath, when non-empty, persists the write-ahead state.
	statePath string

	mu sync.Mutex
	// push holds the streams: capture baselines, the sequence counter,
	// pending increments and the acknowledged graphs.
	push *DeltaPusher
	// sentManifests records which manifests the root has acknowledged;
	// relay is at-least-once and the root registers idempotently.
	sentManifests map[api.ProgramKey]bool
	errs          uint64
}

// ForwarderConfig configures a leaf's upstream forwarder.
type ForwarderConfig struct {
	// ID is the leaf's upstream pusher identity. Empty adopts the one a
	// state file records, or mints one with NewPusherID.
	ID string
	// Upstream is the client aimed at the root. Required. Its Key is not
	// read: every stream is sent under its own key.
	Upstream *Client
	// Source returns a consistent snapshot of every leaf substore by
	// key (Multi.Snapshots). Required.
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
// empty to adopt the persisted one. A state file the forwarder could
// not resume exactly is refused, not repaired.
func NewForwarder(cfg ForwarderConfig) (*Forwarder, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("dcgstore: forwarder needs an upstream client")
	}
	if cfg.Source == nil {
		return nil, errors.New("dcgstore: forwarder needs a store source")
	}
	if cfg.ID != "" && !ValidPusherID(cfg.ID) {
		return nil, fmt.Errorf("dcgstore: forwarder id %q invalid: need 1-128 chars of [A-Za-z0-9._:-]", cfg.ID)
	}
	f := &Forwarder{
		source:        cfg.Source,
		manifests:     cfg.Manifests,
		statePath:     cfg.StatePath,
		push:          NewDeltaPusherWithID(cfg.Upstream, cfg.ID),
		sentManifests: make(map[api.ProgramKey]bool),
	}
	if cfg.StatePath != "" {
		if err := f.restore(cfg.StatePath, cfg.ID); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// ID returns the leaf's upstream pusher identity.
func (f *Forwarder) ID() string { return f.push.id }

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
	p := f.push
	resp := api.FlushResponse{}
	fail := func(err error) (api.FlushResponse, error) {
		f.errs++
		resp.Pending = len(p.pending)
		resp.Seq = f.ackedSeqLocked()
		return resp, err
	}

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
			if _, err := p.client.RegisterManifest(man); err != nil {
				return fail(fmt.Errorf("dcgstore: relay manifest %s: %w", key.String(), err))
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
	prev, seq0, pending0 := p.last, p.seq, len(p.pending)
	p.last = maps.Clone(prev)
	for _, d := range p.capture(f.source()) {
		resp.Edges += d.delta.NumEdges()
		resp.Weight += d.delta.Total()
	}
	if p.seq > seq0 {
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
			p.last, p.seq, p.pending = prev, seq0, p.pending[:pending0]
			f.errs++
			resp.Edges, resp.Weight = 0, 0
			return resp, fmt.Errorf("dcgstore: persist capture: %w", err)
		}
	}

	// Each ack is persisted as it lands. A failed persist stops the
	// flush with the ack applied in memory: the stale file costs only a
	// redundant (deduplicated) re-send after a crash.
	if err := p.send(func() error {
		if err := f.persistLocked(); err != nil {
			return fmt.Errorf("persist ack: %w", err)
		}
		return nil
	}); err != nil {
		return fail(fmt.Errorf("dcgstore: forward: %w", err))
	}
	resp.Forwarded = true
	resp.Seq = p.seq
	return resp, nil
}

// ackedSeqLocked returns the highest acknowledged sequence: the seq
// just below the oldest pending increment, or the counter itself when
// nothing is pending.
func (f *Forwarder) ackedSeqLocked() uint64 {
	if len(f.push.pending) > 0 {
		return f.push.pending[0].seq - 1
	}
	return f.push.seq
}

// Acknowledged returns a clone of the cumulative graph the root has
// acknowledged from this leaf for key's stream — what the conservation
// checker holds the root accountable for; an empty graph when the root
// has acknowledged nothing for that stream.
func (f *Forwarder) Acknowledged(key api.ProgramKey) *profile.DCG {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.push.acknowledged(key)
}

// ackedSizeLocked sums the acknowledged graphs of every stream (in key
// order, so the float sum is reproducible).
func (f *Forwarder) ackedSizeLocked() (edges int, weight float64) {
	for _, k := range api.SortedKeys(f.push.acked) {
		edges += f.push.acked[k].NumEdges()
		weight += f.push.acked[k].Total()
	}
	return edges, weight
}

// Pending reports how many captured increments await acknowledgement.
func (f *Forwarder) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.push.Pending()
}

// Status returns the leaf's registration/heartbeat body.
func (f *Forwarder) Status(addr string) api.LeafStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	edges, weight := f.ackedSizeLocked()
	return api.LeafStatus{
		ID:     f.push.id,
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
		Seq:       f.push.seq,
		Pending:   f.push.Pending(),
		Forwards:  uint64(f.push.Pushes),
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
	p := f.push
	st := forwarderState{ID: p.id, Seq: p.seq}
	for _, d := range p.pending {
		st.Pending = append(st.Pending, pendingState{
			Seq: d.seq, Program: d.key.Program, Version: d.key.Version, Delta: d.delta.Encode(),
		})
	}
	// Every acked stream has a baseline (an increment is captured, which
	// sets the baseline, before it can be acknowledged), so the
	// baselines' keys are all the streams there are.
	for _, k := range api.SortedKeys(p.last) {
		ss := streamState{Program: k.Program, Version: k.Version, Last: p.last[k].Encode()}
		if g := p.acked[k]; g != nil && g.NumEdges() > 0 {
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
		return fmt.Errorf("dcgstore: corrupt forwarder state %s: %w", path, err)
	}
	if err := f.install(&st, wantID); err != nil {
		return fmt.Errorf("dcgstore: forwarder state %s: %w", path, err)
	}
	return nil
}

// install checks st and loads it into the forwarder's pusher. It
// refuses what the forwarder could not resume exactly: an identity that
// is invalid or not wantID's, a stream key a store would refuse or one
// listed twice, an acked graph or a pending increment whose stream has
// no capture baseline (its next capture would re-send the whole
// stream), and pending seqs that are not the counter's last ones in
// order — a capture stamped below a pending seq would reach the root
// after it and be dropped there as a duplicate, its weight lost.
func (f *Forwarder) install(st *forwarderState, wantID string) error {
	if !ValidPusherID(st.ID) {
		return fmt.Errorf("bad pusher id %q", st.ID)
	}
	if wantID != "" && st.ID != wantID {
		return fmt.Errorf("belongs to %q, not %q (sequence streams are per identity)", st.ID, wantID)
	}
	p := f.push
	p.id, p.seq = st.ID, st.Seq
	seen := make(map[api.ProgramKey]bool)
	for _, ss := range st.streams() {
		key := api.ProgramKey{Program: ss.Program, Version: ss.Version}
		if seen[key] || (!key.IsZero() && !validKey(key)) {
			return fmt.Errorf("bad or repeated stream %q", key.String())
		}
		seen[key] = true
		var err error
		// A stream that has captured or acknowledged nothing has no bytes.
		if len(ss.Last) > 0 {
			if p.last[key], err = profile.DecodeDCGBytes(ss.Last); err != nil {
				return fmt.Errorf("capture baseline %s: %w", key.String(), err)
			}
		}
		if len(ss.Acked) > 0 {
			if p.last[key] == nil {
				return fmt.Errorf("acked graph %s has no capture baseline", key.String())
			}
			if p.acked[key], err = profile.DecodeDCGBytes(ss.Acked); err != nil {
				return fmt.Errorf("acked graph %s: %w", key.String(), err)
			}
		}
	}
	for i, ps := range st.Pending {
		key := api.ProgramKey{Program: ps.Program, Version: ps.Version}
		if want := st.Seq - uint64(len(st.Pending)-1-i); ps.Seq != want || ps.Seq == 0 {
			return fmt.Errorf("pending increment %d of %d is seq %d, want %d: pending seqs must run up to seq %d",
				i+1, len(st.Pending), ps.Seq, want, st.Seq)
		}
		if p.last[key] == nil {
			return fmt.Errorf("pending increment %d for %q has no capture baseline", ps.Seq, key.String())
		}
		d, err := profile.DecodeDCGBytes(ps.Delta)
		if err != nil {
			return fmt.Errorf("pending increment %d: %w", ps.Seq, err)
		}
		p.pending = append(p.pending, stampedDelta{seq: ps.Seq, key: key, delta: d})
	}
	for _, k := range st.SentManifests {
		if !validKey(k) {
			return fmt.Errorf("bad relayed manifest %q", k.String())
		}
		f.sentManifests[k] = true
	}
	return nil
}
