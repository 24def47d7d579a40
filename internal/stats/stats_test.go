package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Error("mean wrong")
	}
}

func TestMedian(t *testing.T) {
	if Median(nil) != 0 {
		t.Error("median of empty should be 0")
	}
	if !almost(Median([]float64{3, 1, 2}), 2) {
		t.Error("odd median wrong")
	}
	if !almost(Median([]float64{4, 1, 2, 3}), 2.5) {
		t.Error("even median wrong")
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("median mutated input")
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{1, 4}), 2) {
		t.Errorf("geomean = %v", GeoMean([]float64{1, 4}))
	}
	if GeoMean([]float64{-1, 0}) != 0 {
		t.Error("geomean of non-positive inputs should be 0")
	}
	if !almost(GeoMean([]float64{-1, 9, 1}), 3) {
		t.Error("geomean should skip non-positive entries")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty min/max should be 0")
	}
}

// Properties: median and mean are bounded by min/max; median is
// order-independent.
func TestCentralTendencyProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m, md := Mean(xs), Median(xs)
		lo, hi := Min(xs), Max(xs)
		if m < lo-1e-9 || m > hi+1e-9 || md < lo || md > hi {
			return false
		}
		// Reverse and recompute median.
		rev := make([]float64, len(xs))
		for i := range xs {
			rev[i] = xs[len(xs)-1-i]
		}
		return almost(Median(rev), md)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
