// Package stats holds no code, only the property tests of the latency
// histogram that dqload and the latency ablation record into
// (obs.LatSnapshot). They keep the names they had when this package
// owned a histogram of its own; internal/obs/lat_test.go checks the same
// geometry as table rows.
package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

const subBuckets = obs.LatSubBuckets

func TestHistogramEmpty(t *testing.T) {
	var h obs.LatSnapshot
	if h.Count != 0 || h.Mean() != 0 || h.Max != 0 {
		t.Fatal("empty histogram misbehaves")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty != 0")
	}
	if h.String() != "empty histogram" {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h obs.LatSnapshot
	h.Record(100)
	if h.Count != 1 || h.Quantile(0) != 100 || h.Max != 100 {
		t.Fatalf("bad stats: %v", h.String())
	}
	if h.Mean() != 100 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	q := h.Quantile(0.5)
	if q < 96 || q > 100 {
		t.Fatalf("Quantile(0.5) = %d, want ~100 within bucket error", q)
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	// Values below subBuckets land in exact unit buckets.
	var h obs.LatSnapshot
	for v := uint64(0); v < subBuckets; v++ {
		h.Record(v)
	}
	for q, want := range map[float64]uint64{0.0: 0, 0.5: subBuckets / 2} {
		if got := h.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Any recorded value's bucket representative must be within ~2x
	// subBucket resolution of the value.
	f := func(raw uint32) bool {
		v := uint64(raw)
		var h obs.LatSnapshot
		h.Record(v)
		got := h.Quantile(0.5)
		if v < subBuckets {
			return got == v
		}
		rel := math.Abs(float64(got)-float64(v)) / float64(v)
		return got <= v && rel <= 1.0/float64(subBuckets)*2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantilesOrdered(t *testing.T) {
	var h obs.LatSnapshot
	for i := uint64(1); i <= 100000; i += 7 {
		h.Record(i)
	}
	last := uint64(0)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		v := h.Quantile(q)
		if v < last {
			t.Fatalf("quantiles not monotone: q=%v gives %d < %d", q, v, last)
		}
		last = v
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h obs.LatSnapshot
	for i := uint64(1); i <= 10000; i++ {
		h.Record(i)
	}
	p50 := float64(h.Quantile(0.5))
	if p50 < 4500 || p50 > 5500 {
		t.Fatalf("p50 = %v, want ~5000", p50)
	}
	p99 := float64(h.Quantile(0.99))
	if p99 < 9300 || p99 > 10000 {
		t.Fatalf("p99 = %v, want ~9900", p99)
	}
}

// TestHistogramQuantileVsExact pins the histogram's accuracy contract
// against ground truth: for several distributions, every reported
// quantile must sit within one bucket width (1/subBuckets relative, the
// geometry's guarantee) below the exact sorted-sample quantile.
func TestHistogramQuantileVsExact(t *testing.T) {
	distributions := map[string]func(i uint64) uint64{
		"uniform":   func(i uint64) uint64 { return i + 1 },
		"squared":   func(i uint64) uint64 { return (i + 1) * (i + 1) },
		"logspread": func(i uint64) uint64 { return 100 + (i%20)*(1<<(i%30)/1024+1) },
	}
	const n = 20000
	for name, gen := range distributions {
		var h obs.LatSnapshot
		vals := make([]uint64, n)
		for i := uint64(0); i < n; i++ {
			vals[i] = gen(i)
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			target := int(q * n)
			if target >= n {
				target = n - 1
			}
			exact := vals[target]
			got := h.Quantile(q)
			if got > exact {
				t.Errorf("%s: Quantile(%v) = %d above exact %d (representative must be a lower bound)",
					name, q, got, exact)
				continue
			}
			rel := float64(exact-got) / float64(exact)
			if rel > 1.0/subBuckets {
				t.Errorf("%s: Quantile(%v) = %d vs exact %d: relative error %.4f exceeds %.4f",
					name, q, got, exact, rel, 1.0/subBuckets)
			}
		}
	}
}

// TestHistogramMergePreservesQuantiles pins that splitting a stream
// across histograms and merging is indistinguishable from recording it
// all in one — merge adds bucket counts, so every quantile must be
// bit-identical, not merely close.
func TestHistogramMergePreservesQuantiles(t *testing.T) {
	const n, parts = 30000, 7
	var whole obs.LatSnapshot
	shards := make([]obs.LatSnapshot, parts)
	for i := uint64(0); i < n; i++ {
		v := (i*2654435761 + 17) % 1000000
		whole.Record(v)
		shards[i%parts].Record(v)
	}
	var merged obs.LatSnapshot
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged.Count != whole.Count {
		t.Fatalf("merged count %d != whole count %d", merged.Count, whole.Count)
	}
	if merged.Sum != whole.Sum || merged.Max != whole.Max {
		t.Fatalf("merged sum/max %d/%d != whole %d/%d",
			merged.Sum, merged.Max, whole.Sum, whole.Max)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		if m, w := merged.Quantile(q), whole.Quantile(q); m != w {
			t.Errorf("Quantile(%v): merged %d != whole %d", q, m, w)
		}
	}
}

func TestHistogramQuantileOutOfRangePanics(t *testing.T) {
	var h obs.LatSnapshot
	h.Record(1)
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			h.Quantile(q)
		}()
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b obs.LatSnapshot
	for i := uint64(0); i < 1000; i++ {
		a.Record(10)
		b.Record(1000)
	}
	a.Merge(&b)
	if a.Count != 2000 {
		t.Fatalf("merged count = %d", a.Count)
	}
	if a.Quantile(0) != 10 || a.Max != 1000 {
		t.Fatalf("merged min/max = %d/%d", a.Quantile(0), a.Max)
	}
	mid := a.Mean()
	if mid < 500 || mid > 510 {
		t.Fatalf("merged mean = %v, want 505", mid)
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var a, b obs.LatSnapshot
	a.Record(5)
	a.Merge(&b) // merging empty must not clobber the smallest value or Max
	if a.Count != 1 || a.Quantile(0) != 5 || a.Max != 5 {
		t.Fatalf("count/min/max = %d/%d/%d after merging empty", a.Count, a.Quantile(0), a.Max)
	}
}

func TestHistogramHugeValues(t *testing.T) {
	// Values past the last major clamp into the last bucket; Max stays exact.
	var h obs.LatSnapshot
	h.Record(math.MaxUint64)
	h.Record(1 << 60)
	if h.Count != 2 {
		t.Fatal("lost observations")
	}
	if h.Quantile(1) == 0 {
		t.Fatal("huge values vanished")
	}
	if h.Max != math.MaxUint64 {
		t.Fatalf("Max = %d, want %d", h.Max, uint64(math.MaxUint64))
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	last := -1
	for _, v := range []uint64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40, 1 << 62} {
		i := obs.LatBucketIndex(v)
		if i < last {
			t.Fatalf("LatBucketIndex not monotone at %d", v)
		}
		if low := obs.LatBucketLow(i); low > v {
			t.Fatalf("LatBucketLow(%d) = %d exceeds value %d", i, low, v)
		}
		last = i
	}
}

func TestStringFormat(t *testing.T) {
	var h obs.LatSnapshot
	for i := uint64(1); i <= 100; i++ {
		h.Record(i * 10)
	}
	s := h.String()
	for _, frag := range []string{"n=100", "p50=", "p99=", "max="} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}
