// Package profile provides the dynamic call graph (DCG) data structure,
// the overlap accuracy metric used in the paper's §6.2, and the
// calling-context tree extension (§4, §8).
//
// A DCG is a weighted multigraph: nodes are methods, and each edge is a
// (caller, call site, callee) triple, so two distinct call sites from
// the same caller to the same callee are distinct edges, and a
// megamorphic call site contributes one edge per observed target.
package profile

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Edge is one dynamic call graph edge. IDs refer to bytecode.Method.ID
// and the program's global call-site numbering; the profile package
// deliberately stores plain integers so profiles can be saved, diffed,
// and compared without holding the program alive.
type Edge struct {
	Caller int
	Site   int
	Callee int
}

// String renders the edge as "caller --site--> callee".
func (e Edge) String() string {
	return fmt.Sprintf("m%d --s%d--> m%d", e.Caller, e.Site, e.Callee)
}

// DCG is a dynamic call graph: call edges with sample weights, and the
// number of sampling windows that filled it.
// The zero value is not usable; call NewDCG.
type DCG struct {
	weights map[Edge]float64
	total   float64
	windows float64
}

// NewDCG returns an empty dynamic call graph.
func NewDCG() *DCG {
	return &DCG{weights: make(map[Edge]float64)}
}

// AddSample adds weight w to edge e. Most profilers add 1 per sample;
// weighted clients (e.g. the code-patching comparator's frequency
// estimates) may add other positive weights.
func (g *DCG) AddSample(e Edge, w float64) {
	if w <= 0 {
		return
	}
	g.weights[e] += w
	g.total += w
}

// Weight returns the raw accumulated weight of e.
func (g *DCG) Weight(e Edge) float64 { return g.weights[e] }

// Percent returns e's weight as a percentage (0–100) of the graph's
// total weight, the normalization the overlap metric is defined over.
func (g *DCG) Percent(e Edge) float64 {
	if g.total == 0 {
		return 0
	}
	return g.weights[e] / g.total * 100
}

// Total returns the total accumulated weight (number of samples for
// count-based profilers).
func (g *DCG) Total() float64 { return g.total }

// Windows returns how many sampling windows filled the graph: a CBS
// takes its samples of one timer tick STRIDE call events apart inside one
// window, so they are one cluster of consecutive calls, one draw of what a
// site does, not SamplesPerTick independent ones. 0 for a graph whose
// source does not count windows (exhaustive, mincover, Whaley): every
// weight is then its own draw.
func (g *DCG) Windows() float64 { return g.windows }

// SetWindows sets the window count; it moves with the weights (Merge
// adds it, DeltaSince subtracts it, Clone and MapWeights keep it).
func (g *DCG) SetWindows(w float64) { g.windows = w }

// NumEdges returns the number of distinct edges observed.
func (g *DCG) NumEdges() int { return len(g.weights) }

// Edges returns all edges in canonical order.
func (g *DCG) Edges() []Edge {
	es := make([]Edge, 0, len(g.weights))
	for e := range g.weights {
		es = append(es, e)
	}
	slices.SortFunc(es, compareEdges)
	return es
}

// compareEdges is the canonical edge order: caller, site, callee.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.Caller, b.Caller); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Site, b.Site); c != 0 {
		return c
	}
	return cmp.Compare(a.Callee, b.Callee)
}

// Clone returns a deep copy of the graph.
func (g *DCG) Clone() *DCG {
	return &DCG{weights: maps.Clone(g.weights), total: g.total, windows: g.windows}
}

// Merge adds every edge of other, and its window count, into g. Edges
// carrying no weight are skipped entirely, so merging never creates
// zero-weight map entries and g.total always stays the exact sum of g's
// edge weights.
func (g *DCG) Merge(other *DCG) {
	g.windows += other.windows
	for e, w := range other.weights {
		if w <= 0 {
			continue
		}
		g.weights[e] += w
		g.total += w
	}
}

// DeltaSince returns the weight accumulated in g since prev was
// captured: a new DCG holding, for every edge, g's weight minus prev's
// where the difference is positive. For a monotonically growing graph
// (every profiler only adds samples), pushing successive deltas to an
// aggregator and merging them reproduces g exactly — the property the
// cbsd push protocol relies on. The window count is a difference too.
// A nil prev yields a clone of g.
func (g *DCG) DeltaSince(prev *DCG) *DCG {
	d := NewDCG()
	d.windows = g.windows
	if prev != nil {
		d.windows = max(g.windows-prev.windows, 0)
	}
	for e, w := range g.weights {
		if prev != nil {
			w -= prev.weights[e]
		}
		d.AddSample(e, w)
	}
	return d
}

// MapWeights returns a copy of g with every weight replaced by
// f(edge, weight) and the window count kept; edges mapped to a
// non-positive weight are dropped.
// The copy is rebuilt in canonical edge order, so its total depends on
// the surviving edges and weights alone, not on the insertion order that
// built g (float addition is not associative): plan thresholds rely on it.
func (g *DCG) MapWeights(f func(e Edge, w float64) float64) *DCG {
	c := NewDCG()
	c.windows = g.windows
	for _, e := range g.Edges() {
		c.AddSample(e, f(e, g.weights[e]))
	}
	return c
}

// MapsTo reports whether g.MapWeights(f) would hold exactly other's
// edges at exactly other's weights, without building it: set equality
// needs neither an order nor a total, so nothing is sorted or allocated.
// Window counts are not compared.
func (g *DCG) MapsTo(other *DCG, f func(e Edge, w float64) float64) bool {
	n := 0
	for e, w := range g.weights {
		if w = f(e, w); w <= 0 {
			continue
		}
		// An edge other lacks reads 0 there, which no kept weight is.
		if other.weights[e] != w {
			return false
		}
		n++
	}
	return n == len(other.weights)
}

// TargetWeight is one callee's share of a call site's samples.
type TargetWeight struct {
	Callee  int
	Weight  float64
	Percent float64 // of the site's samples, 0–100
}

// SiteDistribution returns the receiver-target distribution observed at
// one call site, heaviest first. Profile-directed inliners use this for
// the paper's "callee accounts for more than 40% of the distribution"
// guarded-inlining rule.
//
// The site total is accumulated over the matching edges in canonical
// order, not map order: float addition is not associative, so summing
// in map-iteration order could return percentages differing in the
// last ulp between two calls on the same graph — enough to flap a
// policy threshold and break plan determinism.
func (g *DCG) SiteDistribution(site int) []TargetWeight {
	es := g.siteEdges(site)
	var tot float64
	ts := make([]TargetWeight, 0, len(es))
	for _, e := range es {
		w := g.weights[e]
		ts = append(ts, TargetWeight{Callee: e.Callee, Weight: w})
		tot += w
	}
	for i := range ts {
		if tot > 0 {
			ts[i].Percent = ts[i].Weight / tot * 100
		}
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Weight != ts[j].Weight {
			return ts[i].Weight > ts[j].Weight
		}
		return ts[i].Callee < ts[j].Callee
	})
	return ts
}

// SiteWeightPercent returns the share (0–100) of the graph's total
// weight attributed to the call site across all its targets — the
// "how hot is this call site" input to inlining heuristics. Summed in
// canonical edge order for the same determinism reason as
// SiteDistribution.
func (g *DCG) SiteWeightPercent(site int) float64 {
	if g.total == 0 {
		return 0
	}
	var w float64
	for _, e := range g.siteEdges(site) {
		w += g.weights[e]
	}
	return w / g.total * 100
}

// siteEdges returns the edges at one call site in canonical (caller,
// callee) order.
func (g *DCG) siteEdges(site int) []Edge {
	var es []Edge
	for e := range g.weights {
		if e.Site == site {
			es = append(es, e)
		}
	}
	slices.SortFunc(es, compareEdges)
	return es
}

// Sites returns the distinct call-site IDs present, sorted.
func (g *DCG) Sites() []int {
	seen := map[int]bool{}
	for e := range g.weights {
		seen[e.Site] = true
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Summary is the graph in one line: edges, total weight and windows.
func (g *DCG) Summary() string {
	return fmt.Sprintf("%d edges, total weight %.0f, %.0f windows", g.NumEdges(), g.total, g.windows)
}

// Dump renders the graph sorted by descending weight, resolving IDs
// through name functions (either may be nil).
func (g *DCG) Dump(methodName func(int) string, siteName func(int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "DCG: %s\n", g.Summary())
	for _, e := range g.TopEdges(0) {
		caller := fmt.Sprintf("m%d", e.Caller)
		callee := fmt.Sprintf("m%d", e.Callee)
		site := fmt.Sprintf("s%d", e.Site)
		if methodName != nil {
			caller = methodName(e.Caller)
			callee = methodName(e.Callee)
		}
		if siteName != nil {
			site = siteName(e.Site)
		}
		fmt.Fprintf(&b, "  %6.2f%% (%8.0f)  %s [%s] -> %s\n", g.Percent(e), g.weights[e], caller, site, callee)
	}
	return b.String()
}
