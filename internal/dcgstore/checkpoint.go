package dcgstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Checkpoint persistence.
//
// The store's durability model is checkpoint-based: the whole Multi is
// periodically written to a state directory and reloaded on boot, so a
// restarted daemon resumes with the fleet DCG intact instead of empty.
// A checkpoint is one file, CheckpointFile: a JSON envelope (the shape
// of the forwarder's forward-state.json) holding the succession table
// and one element per substore — the zero key's first, then the builds
// in registration order (substore.order), which is how that order
// survives a restart. Graphs are DCG.Encode bytes (base64 in JSON), so
// weights are exact to the bit.
//
// Everything in the file is captured inside one critical section of
// Multi.mu, and each (graph, marks) pair inside one of its store's
// mutex (Store.CheckpointState), the one every merge advances its mark
// under; RegisterManifest takes the two locks in the same order. The
// file is replaced by one atomicfile.Write, so a reader, and a restart
// after a crash at any point, sees one complete generation: a graph
// contains an increment if and only if its marks record it, a carried
// graph is the one that was merged into the graph beside it, and every
// build the succession table names is listed.
//
// Everything merged after the last completed checkpoint is lost on a
// crash; a graceful shutdown (SIGTERM) writes a final checkpoint after
// draining in-flight requests, so planned restarts lose nothing.

// CheckpointFile is the checkpoint's name inside a state directory.
const CheckpointFile = "checkpoint.json"

// DefaultCheckpointEvery is the default interval between the periodic
// checkpoints cbsd writes in the background (it writes one final
// checkpoint itself after draining in-flight requests on shutdown).
const DefaultCheckpointEvery = 30 * time.Second

type checkpoint struct {
	Latest map[string]string `json:"latest"`
	Stores []checkpointStore `json:"stores"`
}

// checkpointStore is one substore: what the file says of it, and what
// that is in memory. The zero key's has no program and no version, and
// is otherwise saved and restored like any build's.
type checkpointStore struct {
	Program  string            `json:"program,omitempty"`
	Version  string            `json:"version,omitempty"`
	Graph    []byte            `json:"graph"`
	Marks    map[string]uint64 `json:"marks,omitempty"`
	Manifest json.RawMessage   `json:"manifest,omitempty"` // Manifest.Encode
	Carried  []byte            `json:"carried,omitempty"`

	graph, carried *profile.DCG
	manifest       *bytecode.Manifest
}

func (cs *checkpointStore) key() api.ProgramKey {
	return api.ProgramKey{Program: cs.Program, Version: cs.Version}
}

// checkpoint captures m as of one instant. Only the copying happens
// under the lock; pushes wait for it, not for the encoding.
func (m *Multi) checkpoint() checkpoint {
	m.mu.RLock()
	cp := checkpoint{Latest: maps.Clone(m.latest)}
	for _, sub := range m.byOrderLocked() {
		cs := checkpointStore{Program: sub.key.Program, Version: sub.key.Version, manifest: sub.manifest, carried: sub.carried}
		cs.graph, cs.Marks = sub.store.CheckpointState()
		cp.Stores = append(cp.Stores, cs)
	}
	m.mu.RUnlock()
	for i := range cp.Stores {
		cs := &cp.Stores[i]
		// Defense in depth: the ingest handler validates IDs, but a
		// hand-seeded mark must not write a file that restore refuses.
		maps.DeleteFunc(cs.Marks, func(id string, _ uint64) bool { return !ValidPusherID(id) })
		cs.Graph = cs.graph.Encode()
		if cs.manifest != nil {
			cs.Manifest = cs.manifest.Encode()
		}
		if cs.carried != nil {
			cs.Carried = cs.carried.Encode()
		}
	}
	return cp
}

// decode parses a checkpoint file and checks everything in it, so that
// what passes can be installed without a way to fail half way.
func (cp *checkpoint) decode(data []byte) (err error) {
	if err := json.Unmarshal(data, cp); err != nil {
		return err
	}
	for p, v := range cp.Latest {
		if p == "" || len(p) > 64 || !api.ValidProgramVersion(v) {
			return fmt.Errorf("bad succession entry %q: %q", p, v)
		}
	}
	if len(cp.Stores) > MaxProgramKeys+1 {
		return fmt.Errorf("%d stores, more than the %d-build ledger holds", len(cp.Stores), MaxProgramKeys)
	}
	seen := make(map[api.ProgramKey]bool, len(cp.Stores))
	for i := range cp.Stores {
		cs := &cp.Stores[i]
		key, name := cs.key(), cs.key().String()
		if !key.IsZero() && !validKey(key) {
			return fmt.Errorf("bad key %q", name)
		}
		if seen[key] {
			return fmt.Errorf("%q is listed twice", name)
		}
		seen[key] = true
		if cs.graph, err = profile.DecodeDCGBytes(cs.Graph); err != nil {
			return fmt.Errorf("graph of %q: %w", name, err)
		}
		for id := range cs.Marks {
			if !ValidPusherID(id) {
				return fmt.Errorf("marks of %q: bad pusher id %q", name, id)
			}
		}
		if len(cs.Manifest) > 0 {
			if cs.manifest, err = bytecode.DecodeManifest(bytes.NewReader(cs.Manifest)); err != nil {
				return fmt.Errorf("manifest of %q: %w", name, err)
			}
			if cs.manifest.Program != cs.Program || cs.manifest.Version != cs.Version {
				return fmt.Errorf("manifest of %q names %s@%s", name, cs.manifest.Program, cs.manifest.Version)
			}
		}
		if len(cs.Carried) > 0 {
			if cs.carried, err = profile.DecodeDCGBytes(cs.Carried); err != nil {
				return fmt.Errorf("carried graph of %q: %w", name, err)
			}
		}
	}
	return nil
}

// SaveMultiCheckpoint writes m's checkpoint into dir, creating dir if
// needed. A failure at any point leaves the previous checkpoint as it
// was.
func SaveMultiCheckpoint(dir string, m *Multi) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data, err := json.Marshal(m.checkpoint())
	if err == nil {
		err = atomicfile.Write(filepath.Join(dir, CheckpointFile), bytes.NewReader(data))
	}
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", CheckpointFile, err)
	}
	return nil
}

// RestoreMultiCheckpoint loads dir's checkpoint into m and reports
// whether there was one. Call it on an empty Multi before serving
// traffic. All or nothing: a file that is corrupt anywhere is an error
// and leaves m untouched — silently dropping part of it would corrupt
// weights on the next retry, and serving an empty store would let the
// next checkpoint overwrite the good state. For the same reason a
// directory that holds the many-file layout of an earlier cbsd and no
// CheckpointFile is refused, not taken for a fresh start.
func RestoreMultiCheckpoint(m *Multi, dir string) (bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if os.IsNotExist(err) {
		for _, old := range []string{"versions.json", "store.dcgb"} {
			if _, err := os.Stat(filepath.Join(dir, old)); err == nil {
				return false, fmt.Errorf("checkpoint: %s holds %s, written by an earlier cbsd, and no %s: this cbsd cannot read it",
					dir, old, CheckpointFile)
			}
		}
		return false, nil
	}
	var cp checkpoint
	if err == nil {
		err = cp.decode(data)
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint %s: %w", CheckpointFile, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, cs := range cp.Stores {
		// Created in the file's order, so substore.order repeats it.
		sub := m.forLocked(cs.key())
		if sub == nil {
			return false, fmt.Errorf("checkpoint: program ledger full restoring %s", cs.key().String())
		}
		sub.store.MergeDCG(cs.graph)
		sub.store.RestoreSequences(cs.Marks)
		sub.manifest, sub.carried = cs.manifest, cs.carried
	}
	maps.Copy(m.latest, cp.Latest)
	return true, nil
}
