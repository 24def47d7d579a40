package stats

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

const histSub = 1 << histSubBits

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i))
				if i%100 == 0 {
					h.Summary()
				}
			}
		}()
	}
	wg.Wait()
	if s := h.Summary(); s.Count != 8000 || s.Min != 0 || s.Max != 999 || s.Mean != 499.5 {
		t.Fatalf("summary %+v, want 8000 observations of 0..999", s)
	}
}

// latencyLike is the n-th of a fixed cycle of push-shaped latencies in
// milliseconds: most near 40 µs, a tail out to tens of milliseconds.
func latencyLike(n int) float64 {
	return 0.02 + 0.001*float64(n%97) + 30*float64(n%1009/1008)
}

// TestHistogramMemoryIsConstant: a histogram holds what it held when it
// was empty, however much it has seen, and neither Observe nor Summary
// allocates.
func TestHistogramMemoryIsConstant(t *testing.T) {
	if size := unsafe.Sizeof(Histogram{}); size >= 8<<10 {
		t.Errorf("a Histogram is %d bytes, want under 8 KB", size)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	h := new(Histogram)
	h.Observe(1)
	before := heap()
	var last HistogramSummary
	for i := 0; i < 1_000_000; i++ {
		h.Observe(latencyLike(i))
		if i%10_000 == 0 {
			last = h.Summary()
		}
	}
	if grew := int64(heap()) - int64(before); grew >= 64<<10 {
		t.Errorf("live heap grew by %d bytes over 1e6 observations and 100 summaries, want under 64 KB", grew)
	}
	if last.Count < 990_000 || h.Summary().Count != 1_000_001 {
		t.Errorf("counts %d then %d", last.Count, h.Summary().Count)
	}
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.04) }); a != 0 {
		t.Errorf("Observe allocates %v times", a)
	}
	if a := testing.AllocsPerRun(100, func() { last = h.Summary() }); a != 0 {
		t.Errorf("Summary allocates %v times", a)
	}
}

// TestHistogramEndBuckets: what the buckets do not span still counts,
// in the first or the last of them, and Min and Max stay exact.
func TestHistogramEndBuckets(t *testing.T) {
	const subNanosecond = 1e-9 // in ms: a picosecond
	for _, c := range []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {-3, 0}, {subNanosecond, 0}, {math.SmallestNonzeroFloat64, 0},
		{1.0 / (1 << 24), 0}, {1, 24 * histSub}, {1.5, 24*histSub + histSub/2},
		{1<<24 - 1, histBuckets - 1}, {1 << 24, histBuckets - 1}, {1e300, histBuckets - 1}, {math.Inf(1), histBuckets - 1},
	} {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for i := 0; i < histBuckets; i++ {
		mid := bucketMid(i)
		half := math.Ldexp(1, i/histSub+histMinExp) / (2 * histSub)
		below, above := max(i-1, 0), min(i+1, histBuckets-1)
		if bucketOf(mid) != i || bucketOf(mid-half) != i || bucketOf(math.Nextafter(mid-half, 0)) != below || bucketOf(mid+half) != above {
			t.Fatalf("bucket %d is not [%v, %v) around its midpoint %v", i, mid-half, mid+half, mid)
		}
	}

	var h Histogram
	for _, v := range []float64{0, subNanosecond, 0.04, 1e9} {
		h.Observe(v)
	}
	s := h.Summary()
	if s.Count != 4 || s.Min != 0 || s.Max != 1e9 || s.Mean != (subNanosecond+0.04+1e9)/4 {
		t.Errorf("summary %+v", s)
	}
	if s.P50 != bucketMid(0) || s.P99 != bucketMid(histBuckets-1) {
		t.Errorf("quantiles of {0, 1e-9, 0.04, 1e9}: p50 %v p99 %v, want the end buckets' midpoints", s.P50, s.P99)
	}
	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(0)
	if s := zeros.Summary(); s.P50 != 0 || s.P99 != 0 || s.Max != 0 {
		t.Errorf("two zeros summarise as %+v", s)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(latencyLike(i))
		}
	})
	// Every goroutine on the one mutex, as every push is: run with
	// -cpu 2 to see whether it shows.
	b.Run("parallel", func(b *testing.B) {
		var h Histogram
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				h.Observe(latencyLike(i))
			}
		})
	})
}

var summarySink HistogramSummary

// BenchmarkHistogramSummary is one scrape after n pushes, with the 50
// pushes that fall between two scrapes of fleet_mixed observed before
// each: it must cost the same after 1e6 as after 1e3.
func BenchmarkHistogramSummary(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
	}{{"after_1e3", 1e3}, {"after_1e5", 1e5}, {"after_1e6", 1e6}} {
		b.Run(c.name, func(b *testing.B) {
			var h Histogram
			for i := 0; i < c.n; i++ {
				h.Observe(latencyLike(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 50; j++ {
					h.Observe(latencyLike(i + j))
				}
				summarySink = h.Summary()
			}
		})
	}
}
