package obs

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestLatBucketRoundTrip(t *testing.T) {
	last := -1
	for _, v := range []uint64{0, 1, 2, 31, 32, 33, 63, 64, 100, 999,
		1 << 10, 1<<10 + 7, 1 << 20, 1 << 30, 1 << 35, 1 << 36, 1 << 40, 1 << 62} {
		i := LatBucketIndex(v)
		if i < last {
			t.Fatalf("LatBucketIndex not monotone at %d", v)
		}
		if i < 0 || i >= NumLatBuckets {
			t.Fatalf("LatBucketIndex(%d) = %d out of range", v, i)
		}
		if low := LatBucketLow(i); low > v && i < NumLatBuckets-1 {
			t.Fatalf("LatBucketLow(%d) = %d exceeds value %d", i, low, v)
		}
		last = i
	}
}

// TestLatSnapshotQuantile checks each row's digest against the sorted
// sample: a quantile is its bucket's lower bound, so it is monotone in q,
// exact below LatSubBuckets, else at most 1/LatSubBuckets under the exact
// value; past the last major it clamps while Max stays exact. LatSnapshot
// is a plain struct, so this runs under obsoff too.
func TestLatSnapshotQuantile(t *testing.T) {
	seq := func(n int, gen func(i uint64) uint64) []uint64 {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = gen(uint64(i))
		}
		return vs
	}
	last := LatBucketLow(NumLatBuckets - 1)
	for _, tc := range []struct {
		name string
		vals []uint64
	}{
		{"empty", nil},
		{"single", []uint64{100}},
		{"small values exact", seq(LatSubBuckets, func(i uint64) uint64 { return i })},
		{"uniform 100ns..1ms", seq(10000, func(i uint64) uint64 { return (i + 1) * 100 })},
		{"squared", seq(20000, func(i uint64) uint64 { return (i + 1) * (i + 1) })},
		{"logspread", seq(20000, func(i uint64) uint64 { return 100 + (i%20)*(1<<(i%30)/1024+1) })},
		{"random 32-bit", seq(20000, func(i uint64) uint64 { return (i*2654435761 + 3) % (1 << 32) })},
		{"past the last major", []uint64{5, 1 << 40, 1 << 50}},
	} {
		var s LatSnapshot
		var sum, max uint64
		for _, v := range tc.vals {
			s.Record(v)
			sum += v
			if v > max {
				max = v
			}
		}
		n := uint64(len(tc.vals))
		if s.Count != n || s.Sum != sum || s.Max != max {
			t.Errorf("%s: count/sum/max = %d/%d/%d, want %d/%d/%d",
				tc.name, s.Count, s.Sum, s.Max, n, sum, max)
		}
		if n == 0 {
			if s.Mean() != 0 || s.Quantile(0.5) != 0 || s.String() != "empty histogram" {
				t.Errorf("%s: mean %v, p50 %d, %q", tc.name, s.Mean(), s.Quantile(0.5), s.String())
			}
			continue
		}
		if want := float64(sum) / float64(n); s.Mean() != want {
			t.Errorf("%s: mean = %v, want %v", tc.name, s.Mean(), want)
		}
		if !strings.HasPrefix(s.String(), fmt.Sprintf("n=%d ", n)) {
			t.Errorf("%s: String() = %q", tc.name, s.String())
		}
		sorted := append([]uint64(nil), tc.vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prev := uint64(0)
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			got := s.Quantile(q)
			exact := sorted[min(int(q*float64(n)), int(n)-1)]
			switch {
			case got < prev:
				t.Errorf("%s: quantiles not monotone at q=%v: %d < %d", tc.name, q, got, prev)
			case exact >= last:
				if got != last {
					t.Errorf("%s: Quantile(%v) = %d, want clamped %d", tc.name, q, got, last)
				}
			case exact < LatSubBuckets:
				if got != exact {
					t.Errorf("%s: Quantile(%v) = %d, want exact %d", tc.name, q, got, exact)
				}
			case got > exact || float64(exact-got)/float64(exact) > 1.0/LatSubBuckets:
				t.Errorf("%s: Quantile(%v) = %d outside one bucket below exact %d", tc.name, q, got, exact)
			}
			prev = got
		}
	}
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			new(LatSnapshot).Quantile(q)
		}()
	}
}

// TestLatSnapshotMergeExact splits one stream across snapshots, merges
// them (into an empty one, with an empty one last) and requires the
// result to equal recording it all in one, bucket for bucket.
func TestLatSnapshotMergeExact(t *testing.T) {
	for _, parts := range []int{1, 2, 7} {
		var whole, merged LatSnapshot
		shards := make([]LatSnapshot, parts+1) // shards[parts] stays empty
		for i := uint64(0); i < 5000; i++ {
			v := (i*2654435761 + 3) % 1000000
			whole.Record(v)
			shards[i%uint64(parts)].Record(v)
		}
		for i := range shards {
			merged.Merge(&shards[i])
		}
		if merged != whole {
			t.Fatalf("%d parts: merge differs: %d/%d/%d vs %d/%d/%d", parts,
				merged.Count, merged.Sum, merged.Max, whole.Count, whole.Sum, whole.Max)
		}
	}
}

func TestLatRegistryMerge(t *testing.T) {
	if !Enabled {
		t.Skip("obsoff build: recorders are no-ops")
	}
	var reg LatRegistry
	r1, r2 := reg.NewRec(), reg.NewRec()
	for i := uint64(0); i < 100; i++ {
		r1.Record(LatPushLeft, 1000+i)
		r2.Record(LatPushLeft, 2000+i)
		r2.Record(LatPopRight, 500)
	}
	set := reg.Merge()
	pl := &set.Classes[LatPushLeft]
	if pl.Count != 200 {
		t.Fatalf("push_left count = %d, want 200", pl.Count)
	}
	if pr := &set.Classes[LatPopRight]; pr.Count != 100 {
		t.Fatalf("pop_right count = %d, want 100", pr.Count)
	}
	if set.Classes[LatBatchPush].Count != 0 {
		t.Fatal("untouched class has samples")
	}
	// Monotone across snapshots: more recording never shrinks counts.
	r1.Record(LatPushLeft, 1)
	if set2 := reg.Merge(); set2.Classes[LatPushLeft].Count != 201 {
		t.Fatalf("second merge count = %d, want 201", set2.Classes[LatPushLeft].Count)
	}
	sums := set.Summaries()
	if len(sums) != 2 {
		t.Fatalf("Summaries() returned %d classes, want 2", len(sums))
	}
	if sums[0].Class != LatPushLeft.String() || sums[1].Class != LatPopRight.String() {
		t.Fatalf("summary classes = %q, %q", sums[0].Class, sums[1].Class)
	}
}

func TestMergeLatSummariesWeighted(t *testing.T) {
	a := []LatClassSummary{{Class: "push_left", Count: 100, MeanNs: 1000, P50Ns: 900, MaxNs: 2000}}
	b := []LatClassSummary{
		{Class: "push_left", Count: 300, MeanNs: 2000, P50Ns: 1900, MaxNs: 9000},
		{Class: "pop_right", Count: 10, MeanNs: 50, P50Ns: 40, MaxNs: 100},
	}
	m := MergeLatSummaries(a, b)
	if len(m) != 2 {
		t.Fatalf("merged %d classes, want 2", len(m))
	}
	var pl *LatClassSummary
	for i := range m {
		if m[i].Class == "push_left" {
			pl = &m[i]
		}
	}
	if pl == nil {
		t.Fatal("push_left missing from merge")
	}
	if pl.Count != 400 {
		t.Fatalf("merged count = %d, want 400", pl.Count)
	}
	// Count-weighted mean: (100*1000 + 300*2000) / 400 = 1750.
	if pl.MeanNs < 1749 || pl.MeanNs > 1751 {
		t.Fatalf("merged mean = %v, want 1750", pl.MeanNs)
	}
	if pl.MaxNs != 9000 {
		t.Fatalf("merged max = %d, want 9000", pl.MaxNs)
	}
}

func TestWriteLatProm(t *testing.T) {
	var set LatSnapshotSet
	for i := uint64(1); i <= 1000; i++ {
		set.Classes[LatPopLeft].Record(i * 1000)
	}
	var sb strings.Builder
	if err := WriteLatProm(&sb, "test", &set); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{
		"test_op_latency_ns_bucket",
		`class="pop_left"`,
		`le="+Inf"`,
		"test_op_latency_ns_count",
		"test_op_latency_quantile_ns",
		`q="0.99"`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("prom output missing %q:\n%.600s", frag, out)
		}
	}
	if strings.Contains(out, `class="push_left"`) {
		t.Error("prom output includes an empty class")
	}
}

// TestLatGapRange checks the sampler's gap draw: always 1 at rate 1, and
// otherwise within [rate-rate/2, rate+rate/2] with a mean of rate.
func TestLatGapRange(t *testing.T) {
	g := NewLatGap(1)
	for i := 0; i < 100; i++ {
		if n := g.Next(1); n != 1 {
			t.Fatalf("Next(1) = %d, want 1", n)
		}
	}
	for _, rate := range []uint32{2, 3, 4, DefaultLatSample} {
		lo, hi := uint64(rate-rate/2), uint64(rate+rate/2)
		const draws = 1 << 16
		var sum uint64
		for i := 0; i < draws; i++ {
			n := g.Next(rate)
			if n < lo || n > hi {
				t.Fatalf("Next(%d) = %d, want [%d, %d]", rate, n, lo, hi)
			}
			sum += n
		}
		if mean := float64(sum) / draws; mean < 0.98*float64(rate) || mean > 1.02*float64(rate) {
			t.Errorf("Next(%d) mean = %.2f, want %d", rate, mean, rate)
		}
	}
}
