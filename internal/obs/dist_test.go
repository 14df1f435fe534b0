package obs

import (
	"strings"
	"testing"
)

// checkDistBucket checks DistBucket at one snapshot width: the shared
// small cases, the width's own cases, and that bucket i's le bound 2^i-1
// is its largest member, with the last bucket open-ended.
func checkDistBucket(t *testing.T, w int, extra ...[2]uint64) {
	t.Helper()
	last := uint64(1) << (w - 2) // first distance in the open-ended bucket
	cases := [][2]uint64{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{last - 1, uint64(w - 2)}, {last, uint64(w - 1)}, {1 << 40, uint64(w - 1)},
	}
	for _, c := range append(cases, extra...) {
		if got := DistBucket(c[0], w); got != int(c[1]) {
			t.Fatalf("DistBucket(%d, %d) = %d, want %d", c[0], w, got, c[1])
		}
	}
	for i := 1; i < w-1; i++ {
		bound := uint64(1)<<i - 1
		if DistBucket(bound, w) != i || DistBucket(bound+1, w) != i+1 {
			t.Fatalf("bucket %d does not end at %d", i, bound)
		}
	}
}

func TestRankBucket(t *testing.T) {
	checkDistBucket(t, RankBuckets, [2]uint64{1 << 16, 17})
}

func TestInvBucket(t *testing.T) {
	checkDistBucket(t, InvBuckets, [2]uint64{1023, 10}, [2]uint64{1024, InvBuckets - 1})
}

// recordSample fills two registries with the distances 0, 5, 1<<40 | 3, 12
// (the largest first, so a merge that overwrites the max shows) and returns them with the histogram those distances make at width w.
func recordSample(w int) (a, b *DistRegistry, want []uint64) {
	a, b = new(DistRegistry), new(DistRegistry)
	ra, rb := a.NewRec(), b.NewRec()
	ds := []uint64{0, 5, 1 << 40, 3, 12} // 1<<40 lands in the recorder's last bucket, folded into w-1
	for _, d := range ds[:3] {
		ra.Record(d)
	}
	for _, d := range ds[3:] {
		rb.Record(d)
	}
	want = make([]uint64, w)
	for _, d := range ds {
		want[DistBucket(d, w)]++
	}
	return a, b, want
}

func checkHist(t *testing.T, hist, want []uint64) {
	t.Helper()
	for i := range want {
		if hist[i] != want[i] {
			t.Fatalf("hist = %v, want %v", hist, want)
		}
	}
}

func TestRelaxRegistryMerge(t *testing.T) {
	huge := uint64(1) << 40
	a, b, want := recordSample(RankBuckets)
	var m RelaxMetrics
	for _, r := range []*DistRegistry{a, b} {
		r.MergeInto(&m.Pops, &m.RankSum, &m.RankMax, m.RankHist[:])
	}
	if m.Pops != 5 || m.RankSum != 20+huge || m.RankMax != huge {
		t.Fatalf("merge = pops %d sum %d max %d, want 5/%d/%d", m.Pops, m.RankSum, m.RankMax, 20+huge, huge)
	}
	checkHist(t, m.RankHist[:], want)

	// A second merge adds into the snapshot; it does not reset it.
	var m2 RelaxMetrics
	b.MergeInto(&m2.Pops, &m2.RankSum, &m2.RankMax, m2.RankHist[:])
	b.MergeInto(&m2.Pops, &m2.RankSum, &m2.RankMax, m2.RankHist[:])
	if m2.Pops != 4 || m2.MeanRank() != 7.5 {
		t.Fatalf("remerge = pops %d mean %v, want 4/7.5", m2.Pops, m2.MeanRank())
	}

	var sum RelaxMetrics
	sum.Add(RelaxMetrics{Pops: 4, RankSum: 20, RankMax: 12, RankHist: [RankBuckets]uint64{2: 4}})
	sum.Add(RelaxMetrics{Pops: 1, RankSum: 30, RankMax: 30, Shards: 4, RankHist: [RankBuckets]uint64{2: 1}})
	if sum.Pops != 5 || sum.RankSum != 50 || sum.RankMax != 30 || sum.Shards != 4 || sum.RankHist[2] != 5 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestDepqRegistryMerge(t *testing.T) {
	huge := uint64(1) << 40
	// One registry per end, as DEPQ keeps them.
	mins, maxes, want := recordSample(InvBuckets)
	var m DepqMetrics
	mins.MergeInto(&m.PopMins, &m.InvSum, &m.InvMax, m.InvHist[:])
	maxes.MergeInto(&m.PopMaxes, &m.InvSum, &m.InvMax, m.InvHist[:])
	if m.PopMins != 3 || m.PopMaxes != 2 || m.Pops() != 5 {
		t.Fatalf("merge pops = min %d max %d, want 3/2", m.PopMins, m.PopMaxes)
	}
	if m.InvSum != 20+huge || m.InvMax != huge {
		t.Fatalf("merge = sum %d max %d, want %d/%d", m.InvSum, m.InvMax, 20+huge, huge)
	}
	checkHist(t, m.InvHist[:], want)

	var m2 DepqMetrics
	maxes.MergeInto(&m2.PopMins, &m2.InvSum, &m2.InvMax, m2.InvHist[:])
	maxes.MergeInto(&m2.PopMaxes, &m2.InvSum, &m2.InvMax, m2.InvHist[:])
	if m2.Pops() != 4 || m2.MeanInv() != 7.5 {
		t.Fatalf("remerge = pops %d mean %v, want 4/7.5", m2.Pops(), m2.MeanInv())
	}

	var sum DepqMetrics
	sum.Add(DepqMetrics{PopMins: 2, PopMaxes: 2, InvSum: 20, InvMax: 12})
	sum.Add(DepqMetrics{PopMins: 1, InvSum: 30, InvMax: 30, Bands: 8, BandBound: 2, Choice: 2})
	if sum.Pops() != 5 || sum.InvSum != 50 || sum.InvMax != 30 {
		t.Fatalf("Add = %+v", sum)
	}
	if sum.Bands != 8 || sum.BandBound != 2 || sum.Choice != 2 {
		t.Fatalf("Add gauges = %+v", sum)
	}
}

func TestWriteRelaxProm(t *testing.T) {
	var g DistRegistry
	r := g.NewRec()
	r.Record(0)
	r.Record(3)
	var m RelaxMetrics
	g.MergeInto(&m.Pops, &m.RankSum, &m.RankMax, m.RankHist[:])
	m.Shards, m.Sample, m.RankBound, m.SegLen = 4, 2, 64, 5

	var sb strings.Builder
	if err := WriteRelaxProm(&sb, "dq", m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dq_relax_pops_total 2",
		"dq_relax_rank_sum_total 3",
		`dq_relax_rank_error_bucket{le="0"} 1`,
		`dq_relax_rank_error_bucket{le="1"} 1`,
		`dq_relax_rank_error_bucket{le="3"} 2`,
		`dq_relax_rank_error_bucket{le="+Inf"} 2`,
		"dq_relax_rank_error_sum 3",
		"dq_relax_rank_error_count 2",
		"dq_relax_rank_error_max 3",
		"dq_relax_rank_bound 64",
		"dq_relax_seg_len 5",
		"dq_relax_shards 4",
		"dq_relax_sample 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDepqProm(t *testing.T) {
	var mins, maxes DistRegistry
	mins.NewRec().Record(0)
	maxes.NewRec().Record(3)
	var m DepqMetrics
	mins.MergeInto(&m.PopMins, &m.InvSum, &m.InvMax, m.InvHist[:])
	maxes.MergeInto(&m.PopMaxes, &m.InvSum, &m.InvMax, m.InvHist[:])
	m.Bands, m.BandBound, m.Choice = 8, 2, 2

	var sb strings.Builder
	if err := WriteDepqProm(&sb, "sched", m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`sched_depq_pops_total{end="min"} 1`,
		`sched_depq_pops_total{end="max"} 1`,
		"sched_depq_inversion_sum_total 3",
		`sched_depq_inversion_bucket{le="0"} 1`,
		`sched_depq_inversion_bucket{le="1"} 1`,
		`sched_depq_inversion_bucket{le="3"} 2`,
		`sched_depq_inversion_bucket{le="+Inf"} 2`,
		"sched_depq_inversion_sum 3",
		"sched_depq_inversion_count 2",
		"sched_depq_inversion_max 3",
		"sched_depq_band_bound 2",
		"sched_depq_bands 8",
		"sched_depq_choice 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}
