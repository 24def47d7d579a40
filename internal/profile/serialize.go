package profile

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Profiles persist so collected DCGs can be saved by one tool run and
// consumed by another (e.g. profile offline with cbsvm, then feed the
// inliner, or stream snapshots to the cbsd aggregation daemon),
// mirroring how the paper's systems hand profiles from the profiler to
// the optimizing compiler through a repository.
//
// There is one format, versioned behind four magic bytes:
//
//	"DCGB" | uint32 version (2) | uint64 edge count | float64-bits windows |
//	  (int64 caller, int64 site, int64 callee, float64-bits weight)*
//
// all little-endian, edges in canonical (caller, site, callee) order
// and weights and the window count (DCG.Windows: non-negative and
// finite, 0 for a source that does not count windows) as exact IEEE-754
// bit patterns, so serialization is deterministic and byte-identical
// graphs really are identical graphs. Version 1 is the same without the
// window count; it still decodes, as a graph that counts none, so a
// checkpoint or a push written before the count existed reads as it
// did. Encode lays out version 2 and DecodeDCGBytes parses either; WriteTo
// and ReadDCG are the io.Writer and io.Reader spellings of the same two
// functions.
// The format a person reads is a report rendered from a graph
// (DCG.Dump), not a second encoding.

// wireMagic introduces every serialized profile.
var wireMagic = [4]byte{'D', 'C', 'G', 'B'}

// WireVersion is the format version this build writes; it reads it and
// version 1.
const WireVersion = 2

const (
	// wireHdrSize is magic + uint32 version + uint64 edge count + float64
	// windows; version 1's header stops before the windows.
	wireHdrSize   = 24
	wireHdrSizeV1 = 16
	// wireRecSize is the byte size of one edge record.
	wireRecSize = 32
	// maxWireEdges bounds the declared edge count so a corrupt header
	// cannot overflow the length check.
	maxWireEdges = 1 << 32
)

// Encode returns the graph's wire bytes. The output is canonical: two
// DCGs with the same edges and weights encode to identical bytes.
func (g *DCG) Encode() []byte {
	edges := g.Edges()
	b := make([]byte, wireHdrSize+len(edges)*wireRecSize)
	copy(b, wireMagic[:])
	binary.LittleEndian.PutUint32(b[4:8], WireVersion)
	binary.LittleEndian.PutUint64(b[8:16], uint64(len(edges)))
	binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(g.windows))
	rec := b[wireHdrSize:]
	for _, e := range edges {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(int64(e.Caller)))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(int64(e.Site)))
		binary.LittleEndian.PutUint64(rec[16:24], uint64(int64(e.Callee)))
		binary.LittleEndian.PutUint64(rec[24:32], math.Float64bits(g.weights[e]))
		rec = rec[wireRecSize:]
	}
	return b
}

// WriteTo writes Encode's bytes to w.
func (g *DCG) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(g.Encode())
	return int64(n), err
}

// ReadDCG reads r to its end and decodes what it read.
func ReadDCG(r io.Reader) (*DCG, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	return DecodeDCGBytes(data)
}

// DecodeDCGBytes parses a serialized graph, rejecting bad magic, a
// version other than 1 and WireVersion, a length that disagrees with the
// declared edge count, duplicate edges, weights that are not positive and
// finite and a window count that is negative or not finite. Records are
// decoded straight out of the slice, so the daemon can decode a pooled
// request buffer and return it to its pool with nothing retained: the
// resulting DCG never aliases data.
func DecodeDCGBytes(data []byte) (*DCG, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	if len(data) < len(wireMagic) || [4]byte(data[:4]) != wireMagic {
		return nil, fmt.Errorf("bad profile magic: want %q, got %q", wireMagic[:], data[:min(len(data), 16)])
	}
	if len(data) < wireHdrSizeV1 {
		return nil, fmt.Errorf("truncated profile header: %d bytes", len(data))
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	edges := binary.LittleEndian.Uint64(data[8:16])
	hdr, windows := wireHdrSizeV1, 0.0
	switch version {
	case 1:
	case WireVersion:
		if len(data) < wireHdrSize {
			return nil, fmt.Errorf("truncated profile header: %d bytes", len(data))
		}
		hdr, windows = wireHdrSize, math.Float64frombits(binary.LittleEndian.Uint64(data[16:24]))
		if !(windows >= 0) || math.IsInf(windows, 0) {
			return nil, fmt.Errorf("invalid window count %v", windows)
		}
	default:
		return nil, fmt.Errorf("profile wire version %d not supported (this build reads 1 and %d)", version, WireVersion)
	}
	if edges > maxWireEdges {
		return nil, fmt.Errorf("profile declares %d edges, beyond the %d limit", edges, maxWireEdges)
	}
	body := data[hdr:]
	if uint64(len(body)) < edges*wireRecSize {
		return nil, fmt.Errorf("edge %d of %d: truncated record: %w",
			uint64(len(body))/wireRecSize, edges, io.ErrUnexpectedEOF)
	}
	if uint64(len(body)) > edges*wireRecSize {
		return nil, fmt.Errorf("trailing data after %d edges", edges)
	}
	g := NewDCG()
	g.windows = windows
	for i := uint64(0); i < edges; i++ {
		rec := body[i*wireRecSize:][:wireRecSize]
		w := math.Float64frombits(binary.LittleEndian.Uint64(rec[24:32]))
		if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			return nil, fmt.Errorf("edge %d: invalid weight %v", i, w)
		}
		e := Edge{
			Caller: int(int64(binary.LittleEndian.Uint64(rec[0:8]))),
			Site:   int(int64(binary.LittleEndian.Uint64(rec[8:16]))),
			Callee: int(int64(binary.LittleEndian.Uint64(rec[16:24]))),
		}
		if g.weights[e] != 0 {
			return nil, fmt.Errorf("edge %d: duplicate edge %v", i, e)
		}
		g.AddSample(e, w)
	}
	return g, nil
}

// TopEdges returns the k heaviest edges (all of them if k <= 0 or k
// exceeds their number), heaviest first, ties in canonical edge order.
func (g *DCG) TopEdges(k int) []Edge {
	type weighted struct {
		Edge
		w float64
	}
	ws := make([]weighted, 0, len(g.weights))
	for e, w := range g.weights {
		ws = append(ws, weighted{e, w})
	}
	slices.SortFunc(ws, func(a, b weighted) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return compareEdges(a.Edge, b.Edge)
	})
	if k <= 0 || k > len(ws) {
		k = len(ws)
	}
	es := make([]Edge, k)
	for i := range es {
		es[i] = ws[i].Edge
	}
	return es
}
