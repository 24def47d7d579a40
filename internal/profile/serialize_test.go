package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSerializeRoundTrip(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 10, 2), 3.5)
	g.AddSample(edge(4, 11, 5), 1)
	g.AddSample(edge(1, 10, 3), 100)

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDCG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.Total() != g.Total() {
		t.Fatalf("round trip lost data: %d/%v vs %d/%v",
			back.NumEdges(), back.Total(), g.NumEdges(), g.Total())
	}
	if o := Overlap(g, back); math.Abs(o-100) > 1e-9 {
		t.Errorf("round-tripped overlap = %v, want 100", o)
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(ws []uint16) bool {
		g := NewDCG()
		for i, w := range ws {
			if w > 0 {
				g.AddSample(edge(i%7, i%11, i%5), float64(w)/3)
			}
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		back, err := ReadDCG(&buf)
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, e := range g.Edges() {
			if math.Abs(back.Weight(e)-g.Weight(e)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadDCGRejectsGarbage(t *testing.T) {
	bad := []string{
		"",
		"not a profile",
		"dcg v2\n",
		"dcg v1\nedge 1 2\n",
		"dcg v1\nedge a b c d\n",
		"dcg v1\nedge 1 2 3 -5\n",
	}
	for _, s := range bad {
		if _, err := ReadDCG(strings.NewReader(s)); err == nil {
			t.Errorf("ReadDCG should reject %q", s)
		}
	}
}

func TestTopEdges(t *testing.T) {
	g := NewDCG()
	g.AddSample(edge(1, 1, 1), 5)
	g.AddSample(edge(2, 2, 2), 50)
	g.AddSample(edge(3, 3, 3), 10)
	top := g.TopEdges(2)
	if len(top) != 2 || top[0] != edge(2, 2, 2) || top[1] != edge(3, 3, 3) {
		t.Errorf("top edges = %v", top)
	}
	if n := len(g.TopEdges(0)); n != 3 {
		t.Errorf("TopEdges(0) = %d edges, want all 3", n)
	}
}
