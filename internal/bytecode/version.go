package bytecode

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
)

// Content-addressed program identity.
//
// A program's version is the FNV-1a hash of its canonical MJBC
// encoding (encode.go): two builds are the same version if and only if
// they serialize to the same bytes. Name-only identity is what let a
// recompiled benchmark silently merge its samples into the previous
// build's fleet aggregate and let pullers apply plans compiled for a
// different method layout; every profile push, plan, and plan fetch
// now carries (program name, program version) so the aggregation tier
// can keep per-version graphs and refuse cross-version application.
//
// Alongside the opaque whole-program hash, a Manifest carries
// per-method body fingerprints and the call-site table, which is what
// lets the store carry profile edges forward across a version flip for
// the methods that did NOT change (KRAB-style incremental call-graph
// maintenance): an edge survives when its caller, callee, and site
// owner all have unchanged bodies in the new build.

// VersionHash returns the FNV-1a hash of the program's canonical MJBC
// encoding. It is recomputed on every call (programs are mutated in
// place by inlining); callers wanting the *pristine* identity must
// hash before transforming.
func (p *Program) VersionHash() uint64 {
	h := fnv.New64a()
	if err := EncodeProgram(p, h); err != nil {
		// Encoding an in-memory program into a hash can only fail on a
		// program that violates encoder limits; such a program has no
		// canonical form and must not silently alias a real version.
		panic(fmt.Sprintf("bytecode: version hash: %v", err))
	}
	return h.Sum64()
}

// Version returns the program's content-addressed version identity as
// a fixed-width hex string — the form carried in push headers, plan
// wire bodies, ETags, and persistence keys.
func (p *Program) Version() string {
	return fmt.Sprintf("%016x", p.VersionHash())
}

// MethodFingerprint identifies one method across builds: its qualified
// name plus an FNV-1a hash of everything that affects its behaviour
// and its profile attribution (code, constant pool, arity, locals,
// dispatch kind, vtable slot).
type MethodFingerprint struct {
	Name string `json:"name"`
	Hash uint64 `json:"hash"`
}

// Manifest is the cross-version identity map for one build of a
// program: which method IDs and call-site IDs correspond between two
// versions, and which method bodies changed. VMs register it with the
// daemon once per version; the store uses a pair of manifests to carry
// profile edges forward across a version flip.
type Manifest struct {
	Program string              `json:"program"`
	Version string              `json:"version"`
	Methods []MethodFingerprint `json:"methods"`
	Sites   []Site              `json:"sites"`
}

// methodBodyHash fingerprints one method's behaviour-relevant content.
func methodBodyHash(m *Method) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(uint64(int64(m.NArgs)))
	w64(uint64(int64(m.NLocals)))
	w64(uint64(int64(m.VSlot)))
	if m.Static {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	for _, ins := range m.Code {
		h.Write([]byte{byte(ins.Op)})
		w64(uint64(int64(ins.A)))
		w64(uint64(int64(ins.B)))
	}
	for _, c := range m.Consts {
		w64(uint64(c))
	}
	return h.Sum64()
}

// BuildManifest derives the program's manifest under the given name.
// Like Version, it must be built from the pristine program: inlining
// rewrites bodies and would change every caller's fingerprint.
func (p *Program) BuildManifest(name string) *Manifest {
	m := &Manifest{
		Program: name,
		Version: p.Version(),
		Methods: make([]MethodFingerprint, len(p.Methods)),
		Sites:   append([]Site{}, p.Sites...),
	}
	for i, meth := range p.Methods {
		if meth == nil {
			continue
		}
		m.Methods[i] = MethodFingerprint{Name: meth.Name, Hash: methodBodyHash(meth)}
	}
	return m
}

// manifest size bounds: a hostile payload must not be able to demand
// an absurd allocation through the JSON decoder.
const maxManifestEntries = 1 << 20

// EncodeManifest serializes a manifest (JSON; manifests cross the wire
// once per program version, so compactness is not worth a binary
// format).
func (m *Manifest) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("bytecode: encode manifest: %v", err)) // plain structs cannot fail
	}
	return b
}

// DecodeManifest parses and validates a serialized manifest.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("bytecode: bad manifest: %w", err)
	}
	if len(m.Methods) > maxManifestEntries || len(m.Sites) > maxManifestEntries {
		return nil, fmt.Errorf("bytecode: manifest exceeds %d entries", maxManifestEntries)
	}
	for _, s := range m.Sites {
		if s.Owner < -1 || s.Owner >= len(m.Methods) {
			return nil, fmt.Errorf("bytecode: manifest site owner %d out of range", s.Owner)
		}
	}
	return &m, nil
}
