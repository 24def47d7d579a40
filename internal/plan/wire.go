package plan

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// There is one plan format, versioned behind four magic bytes:
//
//	"PLNB" | uint32 version |
//	uint16 len | program bytes |
//	uint16 len | program-version bytes |
//	uint16 len | policy bytes |
//	uint64 epoch | uint64 content hash | uint32 decision count |
//	  (int64 site, int64 callee, uint8 kind)*
//
// all little-endian, decisions in strictly increasing site order. The
// encoding is canonical — two plans with equal content serialize to
// identical bytes — and self-checking: ReadPlan recomputes the content
// hash over the decoded decisions and rejects a payload whose header
// hash disagrees, so a corrupted or truncated-and-padded plan can
// never be applied. The program version is the content-addressed
// identity of the build the decisions were extracted from; Decode holds
// a served plan to the one its reader runs.

// planMagic introduces every serialized plan.
var planMagic = [4]byte{'P', 'L', 'N', 'B'}

// PlanWireVersion is the one plan wire version this build writes and
// reads.
const PlanWireVersion = 2

// Wire format bounds: a corrupt header cannot demand an absurd
// allocation, and names stay within ValidProgramName-scale sizes.
const (
	maxWireName      = 4096
	maxWireDecisions = 1 << 22
)

// encode lays the plan out in the canonical binary wire format.
func (p *Plan) encode() ([]byte, error) {
	if len(p.Program) > maxWireName || len(p.Version) > maxWireName || len(p.Policy) > maxWireName {
		return nil, fmt.Errorf("plan: name too long to serialize")
	}
	if len(p.Decisions) > maxWireDecisions {
		return nil, fmt.Errorf("plan: %d decisions exceed the wire limit %d", len(p.Decisions), maxWireDecisions)
	}
	le := binary.LittleEndian
	const fixed, perDecision = 4 + 4 + 3*2 + 8 + 8 + 4, 8 + 8 + 1
	b := make([]byte, 0, fixed+len(p.Program)+len(p.Version)+len(p.Policy)+perDecision*len(p.Decisions))
	b = append(b, planMagic[:]...)
	b = le.AppendUint32(b, PlanWireVersion)
	for _, name := range []string{p.Program, p.Version, p.Policy} {
		b = append(le.AppendUint16(b, uint16(len(name))), name...)
	}
	b = le.AppendUint64(b, p.Epoch)
	b = le.AppendUint64(b, p.Hash)
	b = le.AppendUint32(b, uint32(len(p.Decisions)))
	for _, d := range p.Decisions {
		b = le.AppendUint64(b, uint64(int64(d.Site)))
		b = le.AppendUint64(b, uint64(int64(d.Callee)))
		b = append(b, uint8(d.Kind))
	}
	return b, nil
}

// WriteTo serializes the plan to w, refusing one whose names or
// decision count exceed the wire bounds.
func (p *Plan) WriteTo(w io.Writer) (int64, error) {
	b, err := p.encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// Encode returns the plan's canonical wire bytes (none for a plan
// WriteTo would refuse).
func (p *Plan) Encode() []byte {
	b, _ := p.encode()
	return b
}

// ReadPlan decodes a plan from the binary wire format, rejecting bad
// magic, unknown versions, malformed names, out-of-order or duplicate
// sites, invalid kinds, a content hash that does not match the decoded
// decisions, and trailing data.
func ReadPlan(r io.Reader) (*Plan, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var hdr struct {
		Magic   [4]byte
		Version uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("truncated plan header: %w", err)
	}
	if hdr.Magic != planMagic {
		return nil, fmt.Errorf("bad plan magic %q: want %q", hdr.Magic[:], planMagic[:])
	}
	if hdr.Version != PlanWireVersion {
		return nil, fmt.Errorf("plan wire version %d not supported (this build reads %d)",
			hdr.Version, PlanWireVersion)
	}
	readString := func(what string, allowEmpty bool) (string, error) {
		var ln uint16
		if err := binary.Read(br, binary.LittleEndian, &ln); err != nil {
			return "", fmt.Errorf("truncated %s length: %w", what, err)
		}
		if (ln == 0 && !allowEmpty) || int(ln) > maxWireName {
			return "", fmt.Errorf("bad %s length %d", what, ln)
		}
		b := make([]byte, ln)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", fmt.Errorf("truncated %s: %w", what, err)
		}
		return string(b), nil
	}
	p := &Plan{}
	var err error
	if p.Program, err = readString("program name", false); err != nil {
		return nil, err
	}
	// Nothing in this repository writes an empty program version, but
	// the format has always allowed one; Decode is what refuses it.
	if p.Version, err = readString("program version", true); err != nil {
		return nil, err
	}
	if p.Policy, err = readString("policy name", false); err != nil {
		return nil, err
	}
	var mid struct {
		Epoch uint64
		Hash  uint64
		Count uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &mid); err != nil {
		return nil, fmt.Errorf("truncated plan header: %w", err)
	}
	if mid.Epoch == 0 {
		return nil, fmt.Errorf("plan epoch 0 is invalid (epochs start at 1)")
	}
	if mid.Count > maxWireDecisions {
		return nil, fmt.Errorf("plan declares %d decisions, beyond the %d limit", mid.Count, maxWireDecisions)
	}
	p.Epoch, p.Hash = mid.Epoch, mid.Hash
	p.Decisions = make([]Decision, 0, mid.Count)
	prevSite := -1 << 62
	for i := uint32(0); i < mid.Count; i++ {
		var rec struct {
			Site   int64
			Callee int64
			Kind   uint8
		}
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("decision %d of %d: truncated record: %w", i, mid.Count, err)
		}
		if rec.Kind > uint8(KindNullGuard) {
			return nil, fmt.Errorf("decision %d: unknown kind %d", i, rec.Kind)
		}
		if int(rec.Site) <= prevSite {
			return nil, fmt.Errorf("decision %d: site %d out of order (canonical plans are strictly increasing by site)", i, rec.Site)
		}
		prevSite = int(rec.Site)
		p.Decisions = append(p.Decisions, Decision{Site: int(rec.Site), Callee: int(rec.Callee), Kind: Kind(rec.Kind)})
	}
	if got := p.ContentHash(); got != p.Hash {
		return nil, fmt.Errorf("plan content hash mismatch: header %016x, decoded content %016x", p.Hash, got)
	}
	if _, err := br.Peek(1); err != io.EOF {
		return nil, fmt.Errorf("trailing data after %d decisions", mid.Count)
	}
	return p, nil
}

// ErrVersionMismatch marks a plan refused because it was compiled for a
// different build of the program than the one demanded. Callers (the
// puller's refusal accounting, the leaf relay) detect it with errors.Is.
var ErrVersionMismatch = errors.New("plan version mismatch")

// CheckVersion is the one spelling of the rule every reader of a served
// plan applies: decisions name method and site IDs, which mean nothing
// in any other build, so a reader that demands a version refuses a plan
// unless it carries exactly that version — another build's and none at
// all alike. An empty version demands nothing (a request for the
// daemon's canonical build).
func (p *Plan) CheckVersion(version string) error {
	if version != "" && p.Version != version {
		return fmt.Errorf("%w: plan epoch %d is for %s@%q, not version %s",
			ErrVersionMismatch, p.Epoch, p.Program, p.Version, version)
	}
	return nil
}

// Decode reads a serialized plan and holds it to the demanded version
// (see CheckVersion): what the pull client and the leaf relay do with
// every 200 before the plan may enter a cache, and the service with a
// plan file before it may be a prior.
func Decode(body []byte, version string) (*Plan, error) {
	p, err := ReadPlan(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if err := p.CheckVersion(version); err != nil {
		return nil, err
	}
	return p, nil
}
