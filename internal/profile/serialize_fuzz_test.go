package profile

import (
	"bytes"
	"testing"
)

// FuzzReadDCG feeds arbitrary bytes through the wire-format decoder:
// it must never panic, and any payload it accepts must survive a
// canonical re-serialization round trip. The text seeds are the format
// that predated DCGB; they are here to be refused.
func FuzzReadDCG(f *testing.F) {
	g := NewDCG()
	g.AddSample(Edge{Caller: 1, Site: 2, Callee: 3}, 4.25)
	g.AddSample(Edge{Caller: -1, Site: 0, Callee: 9}, 1)
	f.Add(g.Encode())
	f.Add([]byte("dcg v1\nedge -1 0 9 1\nedge 1 2 3 4.25\n"))
	f.Add([]byte("dcg v1\nedge 1 2 3 4\n"))
	f.Add([]byte("DCGB"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadDCG(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !bytes.HasPrefix(data, wireMagic[:]) {
			t.Fatalf("accepted a payload that does not start %q", wireMagic[:])
		}
		enc := got.Encode()
		back, err := DecodeDCGBytes(enc)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if back.NumEdges() != got.NumEdges() || back.Total() != got.Total() {
			t.Fatalf("round trip changed graph: %d/%v vs %d/%v",
				back.NumEdges(), back.Total(), got.NumEdges(), got.Total())
		}
		if !bytes.Equal(back.Encode(), enc) {
			t.Fatal("re-encoding a decoded graph is not byte-identical")
		}
	})
}
