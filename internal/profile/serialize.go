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
//	"DCGB" | uint32 version | uint64 edge count |
//	  (int64 caller, int64 site, int64 callee, float64-bits weight)*
//
// all little-endian, edges in canonical (caller, site, callee) order
// and weights as exact IEEE-754 bit patterns, so serialization is
// deterministic and byte-identical graphs really are identical graphs.
// Encode lays it out and DecodeDCGBytes parses it; WriteTo and ReadDCG
// are the io.Writer and io.Reader spellings of the same two functions.
// The format a person reads is a report rendered from a graph
// (DCG.Dump), not a second encoding.

// wireMagic introduces every serialized profile.
var wireMagic = [4]byte{'D', 'C', 'G', 'B'}

// WireVersion is the one format version this build writes and reads.
const WireVersion = 1

const (
	// wireHdrSize is magic + uint32 version + uint64 edge count.
	wireHdrSize = 16
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

// DecodeDCGBytes parses a serialized graph, rejecting bad magic, any
// version but WireVersion, a length that disagrees with the declared
// edge count, duplicate edges and weights that are not positive and
// finite. Records are decoded straight out of the slice, so the daemon
// can decode a pooled request buffer and return it to its pool with
// nothing retained: the resulting DCG never aliases data.
func DecodeDCGBytes(data []byte) (*DCG, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("empty profile")
	}
	if len(data) < len(wireMagic) || [4]byte(data[:4]) != wireMagic {
		return nil, fmt.Errorf("bad profile magic: want %q, got %q", wireMagic[:], data[:min(len(data), 16)])
	}
	if len(data) < wireHdrSize {
		return nil, fmt.Errorf("truncated profile header: %d bytes", len(data))
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	edges := binary.LittleEndian.Uint64(data[8:16])
	if version != WireVersion {
		return nil, fmt.Errorf("profile wire version %d not supported (this build reads %d)", version, WireVersion)
	}
	if edges > maxWireEdges {
		return nil, fmt.Errorf("profile declares %d edges, beyond the %d limit", edges, maxWireEdges)
	}
	body := data[wireHdrSize:]
	if uint64(len(body)) < edges*wireRecSize {
		return nil, fmt.Errorf("edge %d of %d: truncated record: %w",
			uint64(len(body))/wireRecSize, edges, io.ErrUnexpectedEOF)
	}
	if uint64(len(body)) > edges*wireRecSize {
		return nil, fmt.Errorf("trailing data after %d edges", edges)
	}
	g := NewDCG()
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
