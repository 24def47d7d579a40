package plan

import (
	"math"
	"math/rand"
	"testing"

	"gocbs/internal/profile"
)

// TestGridDecidesEverySkip is the property a skipped recompile rests on
// (see Service.planForLocked): a graph conditions to its own conditioned
// graph under the served grid, and a graph that differs from it in one
// edge, or in its window count, still conditions to that graph exactly
// when the edge or the count keeps its grid point. So an edge that crosses
// a grid line or the floor, appears above the floor, or vanishes from
// above it forces a compile, and one that moves inside its grid cell, or
// anywhere below the floor, does not; and so does a window count. The
// graphs are random: weights and counts below, at and far above the
// floor, whole, decayed and sub-normal, over a few dozen edges that share
// sites.
func TestGridDecidesEverySkip(t *testing.T) {
	served := newGrid(floorWeight, gridBand)
	rng := rand.New(rand.NewSource(29))
	randomWeight := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return rng.Float64() * floorWeight // below the floor
		case 1:
			return floorWeight
		case 2:
			return float64(1 + rng.Intn(40))
		case 3:
			return float64(1+rng.Intn(1<<20)) * 0.37 // decayed
		case 4:
			return 5e-324
		default:
			return math.Exp(rng.Float64() * 40)
		}
	}
	randomEdge := func() profile.Edge {
		return profile.Edge{Caller: rng.Intn(8), Site: rng.Intn(12), Callee: rng.Intn(8)}
	}
	// with returns g with e at weight w, 0 removing it.
	with := func(g *profile.DCG, e profile.Edge, w float64) *profile.DCG {
		out := g.MapWeights(func(f profile.Edge, v float64) float64 {
			if f == e {
				return w
			}
			return v
		})
		if g.Weight(e) == 0 && w > 0 {
			out.AddSample(e, w)
		}
		return out
	}
	kinds := map[string]int{}
	// check holds moved, g with e moved, to the answer the grid gives:
	// it conditions to g's conditioned graph iff it skips.
	check := func(g, moved, cond *profile.DCG, e profile.Edge, kind string, skips bool) {
		t.Helper()
		if served.conditionsTo(moved, cond) != skips {
			t.Fatalf("%v %s, from %v to %v: conditions to the conditioned graph %v, want %v",
				e, kind, g.Weight(e), moved.Weight(e), !skips, skips)
		}
		kinds[kind]++
	}
	// checkWindows is check for a window count moved from g's to w.
	checkWindows := func(g, cond *profile.DCG, w float64, kind string, skips bool) {
		t.Helper()
		moved := g.Clone()
		moved.SetWindows(w)
		if served.conditionsTo(moved, cond) != skips {
			t.Fatalf("window count %s, from %v to %v: conditions to the conditioned graph %v, want %v",
				kind, g.Windows(), w, !skips, skips)
		}
		kinds["windows "+kind]++
	}

	for trial := 0; trial < 300; trial++ {
		g := profile.NewDCG()
		for n := rng.Intn(40); n > 0; n-- {
			g.AddSample(randomEdge(), randomWeight())
		}
		if rng.Intn(4) > 0 {
			g.SetWindows(randomWeight())
		}
		cond := Condition(g, floorWeight, gridBand)
		if !served.conditionsTo(g, cond) {
			t.Fatalf("trial %d: a graph does not condition to its own conditioned graph", trial)
		}
		w := g.Windows()
		if q := served.snap(w); q == 0 {
			checkWindows(g, cond, w*rng.Float64(), "moves below the floor", true)
			checkWindows(g, cond, floorWeight*(1+rng.Float64()), "crosses the floor", false)
		} else {
			checkWindows(g, cond, (w+q)/2, "moves inside its cell", true)
			checkWindows(g, cond, q*(1+gridBand), "crosses a grid line", false)
			checkWindows(g, cond, q/(1+gridBand), "crosses a grid line", false)
			checkWindows(g, cond, 0, "vanishes", false)
		}
		for _, e := range g.Edges() {
			w := g.Weight(e)
			q := served.weight(e, w)
			if q == 0 {
				check(g, with(g, e, w*rng.Float64()), cond, e, "moves below the floor", true)
				check(g, with(g, e, floorWeight*(1+rng.Float64())), cond, e, "crosses the floor", false)
				check(g, with(g, e, 0), cond, e, "vanishes from below the floor", true)
				continue
			}
			check(g, with(g, e, (w+q)/2), cond, e, "moves inside its cell", true)
			check(g, with(g, e, q*(1+gridBand)), cond, e, "crosses a grid line", false)
			check(g, with(g, e, q/(1+gridBand)), cond, e, "crosses a grid line", false)
			check(g, with(g, e, floorWeight*rng.Float64()), cond, e, "crosses the floor", false)
			check(g, with(g, e, 0), cond, e, "vanishes", false)
		}
		for i := 0; i < 4; i++ {
			e, w := randomEdge(), randomWeight()
			switch {
			case g.Weight(e) != 0:
			case w >= floorWeight:
				check(g, with(g, e, w), cond, e, "appears", false)
			default:
				check(g, with(g, e, w), cond, e, "appears below the floor", true)
			}
		}
	}
	for _, kind := range []string{"moves inside its cell", "moves below the floor", "crosses a grid line", "crosses the floor",
		"vanishes", "vanishes from below the floor", "appears", "appears below the floor",
		"windows moves inside its cell", "windows moves below the floor", "windows crosses a grid line", "windows crosses the floor", "windows vanishes"} {
		if kinds[kind] < 20 {
			t.Errorf("%d edges %s; the property is under-tested (%v)", kinds[kind], kind, kinds)
		}
	}
}
