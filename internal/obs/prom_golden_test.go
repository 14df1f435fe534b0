package obs

import (
	"os"
	"strings"
	"testing"
)

// TestDistPromGolden pins the full Prometheus text of both distance
// exporters for a fixed snapshot — every HELP/TYPE line, every le bucket,
// _sum/_count and each gauge — so dashboards scraping them never see a
// renamed series or a shifted bucket bound. Both snapshots fill the
// open-ended last bucket.
func TestDistPromGolden(t *testing.T) {
	cases := []struct {
		file  string
		write func(*strings.Builder) error
	}{
		{"relax.prom", func(sb *strings.Builder) error {
			return WriteRelaxProm(sb, "dq", RelaxMetrics{
				Pops: 7, RankSum: 1<<20 + 530, RankMax: 1 << 20,
				RankHist: [RankBuckets]uint64{0: 2, 1: 1, 3: 2, 10: 1, 17: 1},
				Shards:   4, Sample: 2, RankBound: 64, SegLen: 5,
			})
		}},
		{"depq.prom", func(sb *strings.Builder) error {
			return WriteDepqProm(sb, "sched", DepqMetrics{
				PopMins: 4, PopMaxes: 2, InvSum: 2061, InvMax: 2048,
				InvHist: [InvBuckets]uint64{0: 2, 1: 1, 2: 1, 4: 1, 11: 1},
				Bands:   8, BandBound: 2, Choice: 2,
			})
		}},
	}
	for _, c := range cases {
		var sb strings.Builder
		if err := c.write(&sb); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile("testdata/" + c.file)
		if err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Errorf("%s drifted from the golden text:\n--- got\n%s--- want\n%s", c.file, got, want)
		}
	}
}
