package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleSummary is the sort-and-index digest the Histogram computed
// while it still kept every observation: nearest-rank quantiles on the
// sorted values. It stays here as the reference the bucketed histogram
// is held to.
func oracleSummary(values []float64) HistogramSummary {
	n := len(values)
	if n == 0 {
		return HistogramSummary{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	quantile := func(q float64) float64 {
		i := int(math.Ceil(q*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return HistogramSummary{
		Count: n,
		Min:   sorted[0],
		Mean:  sum / float64(n),
		P50:   quantile(0.50),
		P90:   quantile(0.90),
		P99:   quantile(0.99),
		Max:   sorted[n-1],
	}
}

// oracleSets are latency-shaped populations in milliseconds, scrambled.
func oracleSets() map[string][]float64 {
	rng := rand.New(rand.NewSource(26))
	sets := map[string][]float64{"one_sample": {0.0417}}
	for _, n := range []int{1, 2, 7, 100, 1000, 100000} {
		constant := make([]float64, n)
		uniform := make([]float64, n)
		lognormal := make([]float64, n)
		bimodal := make([]float64, n)
		for i := range uniform {
			constant[i] = 0.25
			uniform[i] = 0.01 + 99.99*rng.Float64()
			lognormal[i] = 0.045 * math.Exp(rng.NormFloat64())
			// Fast pushes around 20 µs, one in twelve behind a 5 ms stall.
			bimodal[i] = 0.02 * (1 + 0.1*rng.Float64())
			if rng.Intn(12) == 0 {
				bimodal[i] = 5 * (1 + 0.3*rng.Float64())
			}
		}
		sets[fmt.Sprintf("constant_%d", n)] = constant
		sets[fmt.Sprintf("uniform_%d", n)] = uniform
		sets[fmt.Sprintf("lognormal_%d", n)] = lognormal
		sets[fmt.Sprintf("bimodal_%d", n)] = bimodal
	}
	// 1..100 in a scrambled order: the set whose quantiles are 50, 90
	// and 99 by construction.
	ranks := make([]float64, 100)
	for i := range ranks {
		ranks[i] = float64((i*37)%100 + 1)
	}
	sets["ranks_100"] = ranks
	return sets
}

func observeAll(values []float64) HistogramSummary {
	var h Histogram
	for _, v := range values {
		h.Observe(v)
	}
	return h.Summary()
}

// TestHistogramAgainstSortedOracle: count, min and max are exact, the
// mean is exact up to summation order, each quantile is within 1/32 of
// the observation that nearest rank picks from the sorted values, and
// none of it depends on the order of observation.
func TestHistogramAgainstSortedOracle(t *testing.T) {
	if got := new(Histogram).Summary(); got != (HistogramSummary{}) {
		t.Fatalf("empty summary %+v", got)
	}
	within := func(got, want, rel float64) bool { return math.Abs(got-want) <= rel*math.Abs(want) }
	sets := oracleSets()
	if want := (HistogramSummary{Count: 100, Min: 1, Mean: 50.5, P50: 50, P90: 90, P99: 99, Max: 100}); oracleSummary(sets["ranks_100"]) != want {
		t.Fatalf("the oracle itself reads %+v on 1..100, want %+v", oracleSummary(sets["ranks_100"]), want)
	}
	for name, values := range sets {
		want := oracleSummary(values)
		got := observeAll(values)
		if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
			t.Errorf("%s: count/min/max %d %v %v, oracle %d %v %v", name, got.Count, got.Min, got.Max, want.Count, want.Min, want.Max)
		}
		if !within(got.Mean, want.Mean, 1e-12) {
			t.Errorf("%s: mean %v, oracle %v", name, got.Mean, want.Mean)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{{"p50", got.P50, want.P50}, {"p90", got.P90, want.P90}, {"p99", got.P99, want.P99}} {
			if !within(q.got, q.want, 1.0/32) {
				t.Errorf("%s: %s %v, oracle %v: off by more than 1/32", name, q.name, q.got, q.want)
			}
			if q.got < got.Min || q.got > got.Max {
				t.Errorf("%s: %s %v outside [min %v, max %v]", name, q.name, q.got, got.Min, got.Max)
			}
		}

		reordered := append([]float64(nil), values...)
		rand.New(rand.NewSource(int64(len(values)))).Shuffle(len(reordered), func(i, j int) {
			reordered[i], reordered[j] = reordered[j], reordered[i]
		})
		again := observeAll(reordered)
		if !within(again.Mean, got.Mean, 1e-12) {
			t.Errorf("%s: mean %v after reordering, %v before", name, again.Mean, got.Mean)
		}
		again.Mean = got.Mean
		if again != got {
			t.Errorf("%s: summary depends on observation order:\n %+v\n %+v", name, got, again)
		}
	}
}
