package profile

import "slices"

// Overlap computes the paper's accuracy metric (§6.2):
//
//	overlap(DCG1, DCG2) = Σ_{e ∈ CallEdges} min(Weight(e,DCG1), Weight(e,DCG2))
//
// where CallEdges is the set of edges present in both graphs and
// Weight(e, DCG) is the percentage of the graph's total weight carried
// by e. The result is in [0,100]: 0 for graphs sharing no information,
// 100 for identical weight distributions. Because weights are
// normalized to percentages, the metric is symmetric. It sums the shared
// edges in the canonical edge order, not map order, so that it repeats
// bit for bit and Overlap(a, b) equals Overlap(b, a) exactly: callers
// compare accuracies to the last bit.
func Overlap(a, b *DCG) float64 {
	if a.total == 0 || b.total == 0 {
		return 0
	}
	// Collect from the smaller map.
	small, large := a, b
	if len(b.weights) < len(a.weights) {
		small, large = b, a
	}
	type term struct {
		e   Edge
		pct float64
	}
	shared := make([]term, 0, len(small.weights))
	for e, ws := range small.weights {
		if wl, ok := large.weights[e]; ok {
			shared = append(shared, term{e, min(ws/small.total*100, wl/large.total*100)})
		}
	}
	slices.SortFunc(shared, func(x, y term) int { return compareEdges(x.e, y.e) })
	var sum float64
	for _, t := range shared {
		sum += t.pct
	}
	return sum
}

// Accuracy scores a sampled profile against a perfect (exhaustive)
// profile using the overlap metric, per the paper:
//
//	accuracy(DCG_samp) = overlap(DCG_samp, DCG_perfect)
func Accuracy(sampled, perfect *DCG) float64 {
	return Overlap(sampled, perfect)
}
