package profile

import (
	"math"
	"math/rand/v2"
	"testing"
)

// TestOverlapIsCanonical holds Overlap to ROADMAP item 10a's list on
// random graphs of up to a few hundred edges whose percentages are not
// round, where a sum in map order moves the last ulp from call to call:
// bit-identical across repeated calls and across insertion orders,
// symmetric within 1e-9, in [0, 100] and 100 against itself (both up to
// 1e-9 of rounding). The weights are integers, so a graph built in
// another order holds exactly the same weights and total.
func TestOverlapIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	type sample struct {
		e Edge
		w float64
	}
	draw := func(n int) []sample {
		seen := map[Edge]bool{}
		var out []sample
		for len(out) < n {
			e := edge(rng.IntN(20), rng.IntN(30), rng.IntN(20))
			if !seen[e] {
				seen[e] = true
				out = append(out, sample{e, float64(1 + rng.IntN(1000))})
			}
		}
		return out
	}
	build := func(ss []sample) *DCG {
		g := NewDCG()
		for _, s := range ss {
			g.AddSample(s.e, s.w)
		}
		return g
	}
	bits := math.Float64bits
	for trial := 0; trial < 40; trial++ {
		sa, sb := draw(1+rng.IntN(400)), draw(1+rng.IntN(400))
		a, b := build(sa), build(sb)
		want := Overlap(a, b)
		for rep := 0; rep < 20; rep++ {
			if got := Overlap(a, b); bits(got) != bits(want) {
				t.Fatalf("trial %d: repeated call gave %v, first %v", trial, got, want)
			}
		}
		rng.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
		rng.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
		if got := Overlap(build(sa), build(sb)); bits(got) != bits(want) {
			t.Fatalf("trial %d: shuffled insertion gave %v, first %v", trial, got, want)
		}
		if back := Overlap(b, a); math.Abs(back-want) > 1e-9 {
			t.Errorf("trial %d: Overlap(a,b) = %v, Overlap(b,a) = %v", trial, want, back)
		}
		if want < 0 || want > 100+1e-9 {
			t.Errorf("trial %d: overlap %v outside [0, 100]", trial, want)
		}
		if self := Overlap(a, a.Clone()); math.Abs(self-100) > 1e-9 {
			t.Errorf("trial %d: self-overlap %v, want 100", trial, self)
		}
	}
}
