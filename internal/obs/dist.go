package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/pad"
)

// Observed-relaxation metrics for the two relaxed pool front-ends (the
// public deque.Relaxed[T] and deque.DEPQ[T]). Every pop of either one
// records one distance: the rank error a Relaxed pop exhibited, or the
// band distance (priority inversion) a DEPQ pop reached past resident
// work. Per-handle DistRecs take the records, a DistRegistry merges them
// churn-safely, and the Prometheus writers below export the snapshots. A
// relaxed structure without a measured error distribution is
// hand-waving: the configured bound says what *may* happen, these
// counters say what *did*.
//
// Unlike the hot-path Rec (rec_on.go), a DistRec uses atomics
// unconditionally: both pop paths already pay an O(shards) scan to
// compute the distance, so an uncontended LOCK add on an owned cache line
// is noise there, and one implementation stays race-detector-clean
// without build-tag triplication. Call sites skip recording entirely
// under obsoff.

// RankBuckets and InvBuckets are the rank-error and inversion histogram
// widths: bucket 0 counts distance 0, bucket i counts distances in
// [2^(i-1), 2^i), and the last bucket is open-ended. Inversions are band
// distances, so 2^(InvBuckets-2) = 1024 bands covers any plausible
// configuration.
const (
	RankBuckets = 18
	InvBuckets  = 12
)

// DistBucket maps a distance to its bucket in a histogram of the given
// width.
func DistBucket(d uint64, width int) int {
	return min(bits.Len64(d), width-1) // 0 -> 0, 1 -> 1, [2,4) -> 2, ...
}

// DistRec is one handle's distance recorder, padded off its neighbors'
// cache lines. Written by its owning goroutine, read by DistRegistry
// from anywhere. It buckets at the widest snapshot width; MergeInto
// folds the tail into narrower histograms.
type DistRec struct {
	_     pad.Spacer
	count atomic.Uint64
	sum   atomic.Uint64
	max   atomic.Uint64
	hist  [RankBuckets]atomic.Uint64
	_     pad.Spacer
}

// Record tallies one pop's observed distance. Owner goroutine only (max
// uses an unfenced read-modify-write).
func (r *DistRec) Record(d uint64) {
	r.count.Add(1)
	r.sum.Add(d)
	if d > r.max.Load() {
		r.max.Store(d)
	}
	r.hist[DistBucket(d, RankBuckets)].Add(1)
}

// DistRegistry hands out DistRecs and merges them. Recs are never removed
// — handle registration is permanent, exactly like the counter Registry —
// so merges are monotone across snapshots.
type DistRegistry struct {
	mu   sync.Mutex
	recs []*DistRec
}

// NewRec registers and returns a fresh recorder.
func (g *DistRegistry) NewRec() *DistRec {
	r := new(DistRec)
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
	return r
}

// MergeInto folds every recorder into a snapshot's fields: count and sum
// add, mx takes the larger value, and each bucket adds into hist, the
// buckets past len(hist)-1 into its open-ended last one. It adds rather
// than overwrites, so several registries can merge into one snapshot.
func (g *DistRegistry) MergeInto(count, sum, mx *uint64, hist []uint64) {
	g.mu.Lock()
	recs := g.recs
	g.mu.Unlock()
	for _, r := range recs {
		*count += r.count.Load()
		*sum += r.sum.Load()
		*mx = max(*mx, r.max.Load())
		for i := range r.hist {
			hist[min(i, len(hist)-1)] += r.hist[i].Load()
		}
	}
}

// RelaxMetrics is one merged observed-relaxation snapshot: how far from
// strict FIFO order the relaxed front-end's pops actually strayed.
type RelaxMetrics struct {
	// Pops counts relaxed pops that recorded a rank estimate (strict-mode
	// and obsoff operations record nothing).
	Pops uint64 `json:"pops"`
	// RankSum is the summed rank error over Pops; RankSum/Pops is the
	// mean reordering actually paid for the throughput.
	RankSum uint64 `json:"rank_sum"`
	// RankMax is the worst rank error observed — the number the
	// configured WithRankBound is gated against.
	RankMax uint64 `json:"rank_max"`
	// RankHist buckets the errors: [0], [1,2), [2,4), ... (DistBucket).
	RankHist [RankBuckets]uint64 `json:"rank_hist"`

	// Configuration gauges, filled by the owning front-end.
	Shards    uint64 `json:"shards,omitempty"`     // pool width
	Sample    uint64 `json:"sample,omitempty"`     // d-choice width (0 = strict)
	RankBound uint64 `json:"rank_bound,omitempty"` // configured bound (0 = unbounded)
	SegLen    uint64 `json:"seg_len,omitempty"`    // enforcement window length
}

// MeanRank returns the mean observed rank error (0 when nothing was
// recorded).
func (m RelaxMetrics) MeanRank() float64 {
	if m.Pops == 0 {
		return 0
	}
	return float64(m.RankSum) / float64(m.Pops)
}

// Add merges o into m: counters and histogram sum, maxes and gauges take
// the larger value (mirrors Metrics.Add for multi-front-end scrapes).
func (m *RelaxMetrics) Add(o RelaxMetrics) {
	m.Pops += o.Pops
	m.RankSum += o.RankSum
	m.RankMax = max(m.RankMax, o.RankMax)
	for i := range m.RankHist {
		m.RankHist[i] += o.RankHist[i]
	}
	m.Shards = max(m.Shards, o.Shards)
	m.Sample = max(m.Sample, o.Sample)
	m.RankBound = max(m.RankBound, o.RankBound)
	m.SegLen = max(m.SegLen, o.SegLen)
}

// DepqMetrics is one merged observed-inversion snapshot: how far past
// resident priority bands the DEPQ's pops actually reached.
type DepqMetrics struct {
	// PopMins counts PopMin operations that recorded an inversion
	// estimate (obsoff operations record nothing).
	PopMins uint64 `json:"pop_mins"`
	// PopMaxes counts recorded PopMax operations.
	PopMaxes uint64 `json:"pop_maxes"`
	// InvSum is the summed inversion over all recorded pops;
	// InvSum/(PopMins+PopMaxes) is the mean priority classes skipped.
	InvSum uint64 `json:"inv_sum"`
	// InvMax is the worst inversion observed — the number the configured
	// WithBandBound is gated against.
	InvMax uint64 `json:"inv_max"`
	// InvHist buckets the inversions: [0], [1,2), [2,4), ... (DistBucket).
	InvHist [InvBuckets]uint64 `json:"inv_hist"`

	// Configuration gauges, filled by the owning front-end.
	Bands     uint64 `json:"bands,omitempty"`      // priority-band count
	BandBound uint64 `json:"band_bound,omitempty"` // effective inversion bound
	Choice    uint64 `json:"choice,omitempty"`     // d-choice width inside the window
}

// Pops returns the total recorded pops on either end.
func (m DepqMetrics) Pops() uint64 { return m.PopMins + m.PopMaxes }

// MeanInv returns the mean observed inversion (0 when nothing was
// recorded).
func (m DepqMetrics) MeanInv() float64 {
	if p := m.Pops(); p != 0 {
		return float64(m.InvSum) / float64(p)
	}
	return 0
}

// Add merges o into m: counters and histogram sum, maxes and gauges take
// the larger value (mirrors RelaxMetrics.Add for multi-front-end
// scrapes).
func (m *DepqMetrics) Add(o DepqMetrics) {
	m.PopMins += o.PopMins
	m.PopMaxes += o.PopMaxes
	m.InvSum += o.InvSum
	m.InvMax = max(m.InvMax, o.InvMax)
	for i := range m.InvHist {
		m.InvHist[i] += o.InvHist[i]
	}
	m.Bands = max(m.Bands, o.Bands)
	m.BandBound = max(m.BandBound, o.BandBound)
	m.Choice = max(m.Choice, o.Choice)
}

// promGauge is one gauge of a distance exporter.
type promGauge struct {
	name, help string
	v          uint64
}

// promHead writes a series' HELP and TYPE lines.
func promHead(w io.Writer, prefix, name, help, kind string) {
	fmt.Fprintf(w, "# HELP %s_%s %s\n# TYPE %s_%s %s\n", prefix, name, help, prefix, name, kind)
}

// writeDistHist writes hist as one Prometheus histogram in the native
// cumulative-bucket convention, so distance quantiles work with
// histogram_quantile. Bucket i's le bound is 2^i - 1 (DistBucket); the
// open-ended last bucket is the +Inf line.
func writeDistHist(w io.Writer, prefix, name, help string, hist []uint64, sum, count uint64) {
	promHead(w, prefix, name, help, "histogram")
	var cum uint64
	for i, c := range hist[:len(hist)-1] {
		cum += c
		fmt.Fprintf(w, "%s_%s_bucket{le=\"%d\"} %d\n", prefix, name, uint64(1)<<i-1, cum)
	}
	fmt.Fprintf(w, "%s_%s_bucket{le=\"+Inf\"} %d\n", prefix, name, count)
	fmt.Fprintf(w, "%s_%s_sum %d\n", prefix, name, sum)
	fmt.Fprintf(w, "%s_%s_count %d\n", prefix, name, count)
}

// writeGauges writes one gauge series per entry.
func writeGauges(w io.Writer, prefix string, gauges []promGauge) {
	for _, g := range gauges {
		promHead(w, prefix, g.name, g.help, "gauge")
		fmt.Fprintf(w, "%s_%s %d\n", prefix, g.name, g.v)
	}
}

// WriteRelaxProm writes m in the Prometheus text exposition format with
// the given metric-name prefix.
func WriteRelaxProm(w io.Writer, prefix string, m RelaxMetrics) error {
	bw := &errWriter{w: w}
	promHead(bw, prefix, "relax_pops_total", "Relaxed pops that recorded a rank-error estimate.", "counter")
	fmt.Fprintf(bw, "%s_relax_pops_total %d\n", prefix, m.Pops)
	promHead(bw, prefix, "relax_rank_sum_total", "Summed observed rank error over all recorded pops.", "counter")
	fmt.Fprintf(bw, "%s_relax_rank_sum_total %d\n", prefix, m.RankSum)
	writeDistHist(bw, prefix, "relax_rank_error", "Observed per-pop rank error distribution.",
		m.RankHist[:], m.RankSum, m.Pops)
	writeGauges(bw, prefix, []promGauge{
		{"relax_rank_error_max", "Worst rank error observed since start.", m.RankMax},
		{"relax_rank_bound", "Configured worst-case rank-error bound (0 = unbounded).", m.RankBound},
		{"relax_seg_len", "Segment-window length enforcing the bound.", m.SegLen},
		{"relax_shards", "Shards behind the relaxed front-end.", m.Shards},
		{"relax_sample", "d-choice sample width (0 = strict passthrough).", m.Sample},
	})
	return bw.err
}

// WriteDepqProm writes m in the Prometheus text exposition format with
// the given metric-name prefix; the pops counter is labelled by end.
func WriteDepqProm(w io.Writer, prefix string, m DepqMetrics) error {
	bw := &errWriter{w: w}
	promHead(bw, prefix, "depq_pops_total", "DEPQ pops that recorded an inversion estimate, by end.", "counter")
	fmt.Fprintf(bw, "%s_depq_pops_total{end=\"min\"} %d\n", prefix, m.PopMins)
	fmt.Fprintf(bw, "%s_depq_pops_total{end=\"max\"} %d\n", prefix, m.PopMaxes)
	promHead(bw, prefix, "depq_inversion_sum_total", "Summed observed priority inversion over all recorded pops.", "counter")
	fmt.Fprintf(bw, "%s_depq_inversion_sum_total %d\n", prefix, m.InvSum)
	writeDistHist(bw, prefix, "depq_inversion", "Observed per-pop priority-inversion distribution (band distance).",
		m.InvHist[:], m.InvSum, m.Pops())
	writeGauges(bw, prefix, []promGauge{
		{"depq_inversion_max", "Worst priority inversion observed since start.", m.InvMax},
		{"depq_band_bound", "Effective inversion bound in bands (bands-1 when unbounded).", m.BandBound},
		{"depq_bands", "Priority bands behind the DEPQ front-end.", m.Bands},
		{"depq_choice", "d-choice sample width inside the band window.", m.Choice},
	})
	return bw.err
}
