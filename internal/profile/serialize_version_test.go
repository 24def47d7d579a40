package profile

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestBinaryHeaderMagicAndVersion(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 2, 3), 7)
	g.SetWindows(3)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.Equal(b[:4], wireMagic[:]) {
		t.Fatalf("magic = %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != WireVersion {
		t.Fatalf("version = %d, want %d", v, WireVersion)
	}
	if n := binary.LittleEndian.Uint64(b[8:16]); n != 1 {
		t.Fatalf("edge count = %d, want 1", n)
	}
	if w := math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])); w != 3 {
		t.Fatalf("windows = %v, want 3", w)
	}
}

// TestVersion1Decodes: the format before the window count still reads,
// as the same edges and no count, and writes back as the current version.
func TestVersion1Decodes(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 2, 3), 7)
	g.AddSample(edge(-1, 5, 4), 0.5)
	v2 := g.Encode()
	v1 := append(append([]byte{}, v2[:16]...), v2[wireHdrSize:]...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	got, err := DecodeDCGBytes(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Windows() != 0 || !bytes.Equal(got.Encode(), v2) {
		t.Errorf("version 1 decoded to %s, want %s", got.Summary(), g.Summary())
	}
}

// TestTextPayloadRefused: the line-oriented text format that predated
// DCGB is not a wire format any more; both spellings of the decoder
// answer it as they answer any other payload that does not start "DCGB".
func TestTextPayloadRefused(t *testing.T) {
	for _, in := range []string{
		"dcg v1\nedge 1 10 2 3.5\nedge 4 11 5 1\n",
		"dcg v1\n# comment\n\nedge 1 2 3 4\n",
		"dcg v1\n",
		"DCG",
	} {
		if _, err := ReadDCG(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "bad profile magic") {
			t.Errorf("ReadDCG(%q) = %v, want a bad-magic error", in, err)
		}
		if _, err := DecodeDCGBytes([]byte(in)); err == nil || !strings.Contains(err.Error(), "bad profile magic") {
			t.Errorf("DecodeDCGBytes(%q) = %v, want a bad-magic error", in, err)
		}
	}
}

func TestReadDCGRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(wireMagic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(WireVersion+1))
	binary.Write(&buf, binary.LittleEndian, uint64(0))
	_, err := ReadDCG(&buf)
	if err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestReadDCGRejectsCorruptBinary(t *testing.T) {
	mk := func(mut func(b []byte) []byte) []byte {
		g := NewDCG()
		g.AddSample(edge(1, 2, 3), 4)
		g.AddSample(edge(5, 6, 7), 8)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return mut(buf.Bytes())
	}
	cases := map[string][]byte{
		"bad magic":        mk(func(b []byte) []byte { b[0] = 'X'; return b }),
		"version 0":        mk(func(b []byte) []byte { b[4] = 0; return b }),
		"truncated record": mk(func(b []byte) []byte { return b[:len(b)-5] }),
		"trailing garbage": mk(func(b []byte) []byte { return append(b, 0xAB) }),
		"count overdeclared": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 3)
			return b
		}),
		"nan weight": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[wireHdrSize+24:], math.Float64bits(math.NaN()))
			return b
		}),
		"negative weight": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[wireHdrSize+24:], math.Float64bits(-1))
			return b
		}),
		"nan windows": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(math.NaN()))
			return b
		}),
		"negative windows": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(-1))
			return b
		}),
		"infinite windows": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(math.Inf(1)))
			return b
		}),
		"version 1 header, version 2 body": mk(func(b []byte) []byte {
			b[4] = 1
			return b
		}),
		"truncated windows": mk(func(b []byte) []byte { return b[:20] }),
		"absurd edge count": mk(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		}),
	}
	for name, payload := range cases {
		if _, err := ReadDCG(bytes.NewReader(payload)); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
}

func TestSerializationIsCanonical(t *testing.T) {
	// Two graphs with the same content built in different insertion
	// orders must serialize byte-identically — the property the cbsd
	// convergence test compares aggregates with.
	a, b := NewDCG(), NewDCG()
	a.AddSample(edge(1, 2, 3), 4)
	a.AddSample(edge(9, 8, 7), 6)
	a.AddSample(edge(1, 2, 5), 2)
	b.AddSample(edge(1, 2, 5), 1)
	b.AddSample(edge(9, 8, 7), 6)
	b.AddSample(edge(1, 2, 3), 4)
	b.AddSample(edge(1, 2, 5), 1)
	var ba, bb bytes.Buffer
	if _, err := a.WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("equal graphs serialized to different bytes")
	}
}
