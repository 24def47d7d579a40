package plan

import (
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
// decisions, and trailing data. It reads r to the end and decodes the
// bytes as Decode does.
func ReadPlan(r io.Reader) (*Plan, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodePlan(b)
}

// shortRead is what running out of b reports, as io.ReadFull would:
// io.EOF when none of the field was there, io.ErrUnexpectedEOF when part
// of it was.
func shortRead(have int) error {
	if have == 0 {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// decodePlan is the one plan decoder: a walk over b that allocates the
// plan, its three names and its decisions, and nothing else.
func decodePlan(b []byte) (*Plan, error) {
	le := binary.LittleEndian
	if len(b) < 8 {
		return nil, fmt.Errorf("truncated plan header: %w", shortRead(len(b)))
	}
	if [4]byte(b[:4]) != planMagic {
		return nil, fmt.Errorf("bad plan magic %q: want %q", b[:4], planMagic[:])
	}
	if v := le.Uint32(b[4:]); v != PlanWireVersion {
		return nil, fmt.Errorf("plan wire version %d not supported (this build reads %d)",
			v, PlanWireVersion)
	}
	b = b[8:]
	readString := func(what string, allowEmpty bool) (string, error) {
		if len(b) < 2 {
			return "", fmt.Errorf("truncated %s length: %w", what, shortRead(len(b)))
		}
		ln := int(le.Uint16(b))
		if (ln == 0 && !allowEmpty) || ln > maxWireName {
			return "", fmt.Errorf("bad %s length %d", what, ln)
		}
		b = b[2:]
		if len(b) < ln {
			return "", fmt.Errorf("truncated %s: %w", what, shortRead(len(b)))
		}
		s := string(b[:ln])
		b = b[ln:]
		return s, nil
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
	const mid, record = 8 + 8 + 4, 8 + 8 + 1
	if len(b) < mid {
		return nil, fmt.Errorf("truncated plan header: %w", shortRead(len(b)))
	}
	p.Epoch, p.Hash = le.Uint64(b), le.Uint64(b[8:])
	count := le.Uint32(b[16:])
	b = b[mid:]
	if p.Epoch == 0 {
		return nil, fmt.Errorf("plan epoch 0 is invalid (epochs start at 1)")
	}
	if count > maxWireDecisions {
		return nil, fmt.Errorf("plan declares %d decisions, beyond the %d limit", count, maxWireDecisions)
	}
	// A header may claim more records than b holds; size the slice by
	// what is there, and let the loop name the first missing record.
	p.Decisions = make([]Decision, 0, min(int(count), len(b)/record))
	prevSite := -1 << 62
	for i := uint32(0); i < count; i++ {
		if len(b) < record {
			return nil, fmt.Errorf("decision %d of %d: truncated record: %w", i, count, shortRead(len(b)))
		}
		site, callee, kind := int(int64(le.Uint64(b))), int(int64(le.Uint64(b[8:]))), b[16]
		b = b[record:]
		if kind > uint8(KindNullGuard) {
			return nil, fmt.Errorf("decision %d: unknown kind %d", i, kind)
		}
		if site <= prevSite {
			return nil, fmt.Errorf("decision %d: site %d out of order (canonical plans are strictly increasing by site)", i, site)
		}
		prevSite = site
		p.Decisions = append(p.Decisions, Decision{Site: site, Callee: callee, Kind: Kind(kind)})
	}
	if got := p.ContentHash(); got != p.Hash {
		return nil, fmt.Errorf("plan content hash mismatch: header %016x, decoded content %016x", p.Hash, got)
	}
	if len(b) > 0 {
		return nil, fmt.Errorf("trailing data after %d decisions", count)
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
// (see CheckVersion): what the pull client, and through it the leaf
// relay, does with every 200 before the plan may enter its cache, and
// the service with a plan file before it may be a prior.
func Decode(body []byte, version string) (*Plan, error) {
	p, err := decodePlan(body)
	if err != nil {
		return nil, err
	}
	if err := p.CheckVersion(version); err != nil {
		return nil, err
	}
	return p, nil
}
