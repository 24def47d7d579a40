package dcgstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// Checkpoint persistence.
//
// The store's durability model is checkpoint-based: every substore's
// graph is periodically written to a state directory and reloaded on
// boot, so a restarted daemon resumes with the fleet DCG intact instead
// of empty. Each substore checkpoints to up to four files, named by
// checkpointFile, and an index commits the set of builds:
//
//	graph-<program>@<version>.dcgb     the substore graph, in the
//	                                   versioned DCGB wire format (the
//	                                   serialization /snapshot streams)
//	seqs-<program>@<version>.seq       per-pusher ingest high-water
//	                                   marks: "cbsd-seq v1" header, then
//	                                   "<pusher-id> <seq>" lines
//	manifest-<program>@<version>.json  the registered manifest, if any
//	carried-<program>@<version>.dcgb   the carried-in graph, if any (so
//	                                   per-version conservation
//	                                   accounting survives a restart)
//	store.dcgb, pushers.seq            the zero key's graph and marks
//	versions.json                      build list + per-program succession
//
// '@' appears in neither the program-name nor the version alphabet, so
// the mapping between keys and file names is a bijection. The zero
// key's pair keeps the names it had before stores were keyed, and is
// not listed in the index; a directory written by any earlier daemon
// restores unchanged.
//
// Every file is replaced atomically (atomicfile.Write), so a crash
// mid-write leaves the previous file untouched. Per substore the
// (graph, marks) pair is captured atomically (Store.CheckpointState
// copies both inside one critical section of the store's one mutex, the
// same one every merge advances its mark under) and the marks are
// renamed into place before the graph, so a crash between the two
// leaves marks from a *newer* checkpoint than the graph. That order is
// the safe one: a too-new high-water mark can only drop a retried
// increment, an undercount no worse than the already-documented loss of
// the window since the last durable graph.
// The opposite order (new graph, old marks) would let a post-restart
// retry double-count an increment the graph already contains, which is
// corruption. The index is written last — it is the file that commits a
// checkpoint's build set; a crash before it leaves files of unlisted
// builds that the next restore ignores — and once it has committed,
// files the checkpoint did not write (those of evicted builds) are
// removed.
//
// Everything merged after the last completed checkpoint is lost on a
// crash; a graceful shutdown (SIGTERM) writes a final checkpoint after
// draining in-flight requests, so planned restarts lose nothing.

const (
	// CheckpointGraphFile is the zero key's graph file inside a state
	// directory.
	CheckpointGraphFile = "store.dcgb"
	// CheckpointSeqFile is the zero key's sequence file inside a state
	// directory.
	CheckpointSeqFile = "pushers.seq"
	// MultiIndexFile is the build index inside a state directory.
	MultiIndexFile = "versions.json"
	// seqFileHeader is the sequence file's format header.
	seqFileHeader = "cbsd-seq v1"
)

// DefaultCheckpointEvery is the default interval between the periodic
// checkpoints cbsd writes in the background (it writes one final
// checkpoint itself after draining in-flight requests on shutdown).
const DefaultCheckpointEvery = 30 * time.Second

type multiIndex struct {
	Keys   []api.ProgramKey  `json:"keys"`
	Latest map[string]string `json:"latest"`
}

// fileKind is one of the files a substore checkpoints to: how a build's
// file of that kind is spelled, and what the zero key's is called when
// it has a name of its own.
type fileKind struct{ prefix, ext, zeroName string }

var (
	seqsFile     = fileKind{"seqs", ".seq", CheckpointSeqFile}
	graphFile    = fileKind{"graph", ".dcgb", CheckpointGraphFile}
	manifestFile = fileKind{"manifest", ".json", ""}
	carriedFile  = fileKind{"carried", ".dcgb", ""}
)

// checkpointFile names key's file of the given kind. It is the only
// code that treats the zero key specially: everything else saves and
// restores it like any build.
func checkpointFile(kind fileKind, key api.ProgramKey) string {
	if key.IsZero() && kind.zeroName != "" {
		return kind.zeroName
	}
	return kind.prefix + "-" + key.String() + kind.ext
}

// isBuildFile reports whether name is a file checkpointFile produces
// for some build.
func isBuildFile(name string) bool {
	for _, kind := range []fileKind{seqsFile, graphFile, manifestFile, carriedFile} {
		if !strings.HasPrefix(name, kind.prefix+"-") || !strings.HasSuffix(name, kind.ext) {
			continue
		}
		program, version, _ := strings.Cut(name[len(kind.prefix)+1:len(name)-len(kind.ext)], "@")
		if key := (api.ProgramKey{Program: program, Version: version}); validKey(key) && checkpointFile(kind, key) == name {
			return true
		}
	}
	return false
}

// SaveMultiCheckpoint writes a checkpoint of every substore into dir,
// creating dir if needed.
func SaveMultiCheckpoint(dir string, m *Multi) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	written := make(map[string]bool)
	write := func(kind fileKind, key api.ProgramKey, src io.WriterTo) error {
		name := checkpointFile(kind, key)
		written[name] = true
		if err := atomicfile.Write(filepath.Join(dir, name), src); err != nil {
			return fmt.Errorf("checkpoint %s: %w", name, err)
		}
		return nil
	}
	all := m.all()
	for _, sub := range all {
		g, seqs := sub.store.CheckpointState()
		// Sequences first, graph last: see the ordering argument above.
		if err := write(seqsFile, sub.key, encodeSequences(seqs)); err != nil {
			return err
		}
		if err := write(graphFile, sub.key, g); err != nil {
			return err
		}
		if man := m.Manifest(sub.key); man != nil {
			if err := write(manifestFile, sub.key, bytes.NewReader(man.Encode())); err != nil {
				return err
			}
		}
		if c := m.Carried(sub.key); c != nil {
			if err := write(carriedFile, sub.key, c); err != nil {
				return err
			}
		}
	}
	idx := multiIndex{Keys: []api.ProgramKey{}}
	for _, sub := range all[1:] { // the zero key sorts first and is not a build
		idx.Keys = append(idx.Keys, sub.key)
	}
	m.mu.RLock()
	idx.Latest = maps.Clone(m.latest)
	m.mu.RUnlock()
	var idxFile bytes.Buffer
	enc := json.NewEncoder(&idxFile)
	enc.SetIndent("", "  ")
	if err := enc.Encode(idx); err != nil {
		return fmt.Errorf("checkpoint index: %w", err)
	}
	if err := atomicfile.Write(filepath.Join(dir, MultiIndexFile), &idxFile); err != nil {
		return fmt.Errorf("checkpoint index: %w", err)
	}
	return removeStaleFiles(dir, written)
}

// removeStaleFiles deletes the build files in dir that the checkpoint
// just committed did not write. Without it an evicted build's files
// stay forever, and worse, outlive the build: if a straggler re-creates
// the key cold, later checkpoints rewrite only its graph and sequences,
// and a restart would load the old manifest and carried graph into a
// substore that never merged them.
func removeStaleFiles(dir string, written map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range entries {
		if written[e.Name()] || !isBuildFile(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: remove stale file: %w", err)
		}
	}
	return nil
}

// RestoreMultiCheckpoint loads dir's checkpoint — the zero key's
// substore and every build the index lists — into m and reports whether
// any checkpoint existed. Call it on an empty Multi before serving
// traffic. A key with no graph file is skipped (for the zero key that
// is a fresh start; for a build, an index that got ahead of a crashed
// checkpoint). A graph without a sequence file is tolerated (state
// written by older builds); a present but corrupt file of any kind is
// an error — silently ignoring it would corrupt weights on the next
// retry.
func RestoreMultiCheckpoint(m *Multi, dir string) (bool, error) {
	var idx multiIndex
	if b, err := os.ReadFile(filepath.Join(dir, MultiIndexFile)); err == nil {
		if err := json.Unmarshal(b, &idx); err != nil {
			return false, fmt.Errorf("checkpoint index %s: %w", MultiIndexFile, err)
		}
	} else if !os.IsNotExist(err) {
		return false, fmt.Errorf("checkpoint index: %w", err)
	}
	for _, key := range idx.Keys {
		if !validKey(key) {
			return false, fmt.Errorf("checkpoint index: bad key %q", key.String())
		}
	}
	restored := false
	for _, key := range append([]api.ProgramKey{{}}, idx.Keys...) {
		ok, err := restoreSubstore(m, dir, key)
		if err != nil {
			return restored, err
		}
		restored = restored || ok
	}
	m.mu.Lock()
	for p, v := range idx.Latest {
		if len(p) > 0 && len(p) <= 64 && api.ValidProgramVersion(v) {
			m.latest[p] = v
		}
	}
	m.mu.Unlock()
	return restored, nil
}

// restoreSubstore loads key's files into m, reporting whether key had a
// checkpointed graph.
func restoreSubstore(m *Multi, dir string, key api.ProgramKey) (bool, error) {
	// load hands decode key's file of one kind, if it exists.
	load := func(kind fileKind, decode func(io.Reader) error) (found bool, err error) {
		name := checkpointFile(kind, key)
		b, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			return false, nil
		}
		if err == nil {
			err = decode(bytes.NewReader(b))
		}
		if err != nil {
			return false, fmt.Errorf("checkpoint %s: %w", name, err)
		}
		return true, nil
	}
	var g *profile.DCG
	if found, err := load(graphFile, func(r io.Reader) (err error) {
		g, err = profile.ReadDCG(r)
		return err
	}); !found {
		return false, err
	}
	sub := m.For(key)
	if sub == nil {
		return false, fmt.Errorf("checkpoint: program ledger full restoring %s", key.String())
	}
	sub.MergeDCG(g)
	if _, err := load(seqsFile, func(r io.Reader) error {
		seqs, err := readSequences(r)
		if err == nil {
			sub.RestoreSequences(seqs)
		}
		return err
	}); err != nil {
		return false, err
	}
	if _, err := load(manifestFile, func(r io.Reader) error {
		man, err := bytecode.DecodeManifest(r)
		if err == nil {
			m.mu.Lock()
			m.manifests[key] = man
			m.manifestOrder = append(m.manifestOrder, key)
			m.mu.Unlock()
		}
		return err
	}); err != nil {
		return false, err
	}
	if _, err := load(carriedFile, func(r io.Reader) error {
		c, err := profile.ReadDCG(r)
		if err == nil {
			m.mu.Lock()
			m.carried[key] = c
			m.mu.Unlock()
		}
		return err
	}); err != nil {
		return false, err
	}
	return true, nil
}

// encodeSequences serializes high-water marks in sorted order so the
// file, like the graph, is canonical.
func encodeSequences(seqs map[string]uint64) *bytes.Buffer {
	ids := make([]string, 0, len(seqs))
	for id := range seqs {
		// Defense in depth: the ingest handler validates IDs, but a
		// hand-seeded map must not be able to corrupt the line format.
		if ValidPusherID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	fmt.Fprintln(&buf, seqFileHeader)
	for _, id := range ids {
		fmt.Fprintf(&buf, "%s %d\n", id, seqs[id])
	}
	return &buf
}

// readSequences parses the sequence file format.
func readSequences(r io.Reader) (map[string]uint64, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != seqFileHeader {
		return nil, fmt.Errorf("bad header %q (want %q)", sc.Text(), seqFileHeader)
	}
	seqs := make(map[string]uint64)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !ValidPusherID(fields[0]) {
			return nil, fmt.Errorf("line %d: malformed entry %q", line, text)
		}
		seq, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad sequence %q", line, fields[1])
		}
		seqs[fields[0]] = seq
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return seqs, nil
}
