package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"

	"repro/internal/xrand"
)

// In-process latency histograms: one log-bucketed geometry (~1.6%
// relative error) shared by per-handle single-writer recorders, which
// use the churn-safe monotone merge idiom of the counter Registry, and by
// plain LatSnapshot recorders (the load generator, the latency ablation). Each op class
// (core push/pop by side, batch ops, pool routing, steal sweeps,
// server-side service time) gets its own distribution, so a latency
// snapshot decomposes the tail by layer.
//
// Cost model: a handle records into a lazily-allocated per-class bucket
// block it alone writes (see lat_on.go for the single-writer argument;
// lat_race.go for the atomic variant -race builds substitute), and the
// core op paths — single ops and whole batch calls, on one countdown —
// only record a sampled subset (Config.LatSample, default 1 in 1024) so
// the two clock reads per sample stay inside the <=2% A/B budget even on
// machines where a clock read costs as much as a deque op
// (scripts/verify.sh's obs A/B). Steal sweeps record always: they are
// rare, and their tail is the point. The obsoff build
// compiles the recorder to a zero-size no-op.

// LatClass names one recorded operation class.
type LatClass uint8

const (
	// LatPushLeft..LatPopRight are single core deque operations (sampled).
	LatPushLeft LatClass = iota
	LatPushRight
	LatPopLeft
	LatPopRight
	// LatBatchPush/LatBatchPop are whole PushN/PopN calls, either side
	// (sampled on the single ops' countdown; duration covers the whole
	// batch).
	LatBatchPush
	LatBatchPop
	// LatPoolOp is one pool-level operation: routing decision + shard op +
	// any steal (sampled at the pool handle).
	LatPoolOp
	// LatStealSweep is one full opposite-end steal sweep over the shards
	// (always recorded).
	LatStealSweep
	// LatService is dequed's per-frame service time: request decoded ->
	// response written (and flushed, when the read buffer ran dry).
	LatService
	// NumLatClasses is the size of a LatRec's class table.
	NumLatClasses
)

var latClassNames = [NumLatClasses]string{
	"push_left", "push_right", "pop_left", "pop_right",
	"batch_push", "batch_pop",
	"pool_op", "steal_sweep", "service",
}

// String returns the class's snake_case name as used by the exporters.
func (c LatClass) String() string {
	if c < NumLatClasses {
		return latClassNames[c]
	}
	return "lat(?)"
}

// DefaultLatSample is the single-op sampling interval used when the
// configuration passes 0: record 1 in DefaultLatSample operations.
const DefaultLatSample = 1024

// LatGap draws the spacing between one handle's latency samples. A fixed
// countdown samples every rate-th op, so a handle whose ops repeat with a
// period dividing rate (push, pop, push, pop, ...) only ever samples one
// phase of its cycle. Drawing each gap uniformly from [rate-rate/2,
// rate+rate/2] keeps the mean interval at rate and reaches every phase.
// Every sampling layer (the core's ops, the pool's ops, the server's
// requests) keeps its own countdown and rearms it with Next, once per
// sample, so the draw stays off the unsampled path.
type LatGap struct{ rng xrand.SplitMix64 }

// NewLatGap returns a LatGap seeded with seed; give each handle its own.
func NewLatGap(seed uint64) LatGap { return LatGap{rng: *xrand.NewSplitMix64(seed)} }

// Next returns how many ops the countdown should run until the next
// sample, the sampled op included: uniform on [rate-rate/2, rate+rate/2],
// so 1 at rate 1. rate must be positive.
func (g *LatGap) Next(rate uint32) uint64 {
	half := uint64(rate / 2)
	span := 2*half + 1
	return uint64(rate) - half + (g.rng.Next()>>32)*span>>32
}

// LatClassOf maps a single-op identity to its latency class, relying on
// the enum order pairing each left class with its right neighbor.
func LatClassOf(op Op, side Side) LatClass {
	c := LatPushLeft
	if op == OpPop {
		c = LatPopLeft
	}
	if side == SideRight {
		c++
	}
	return c
}

// Bucket geometry: 32 minor buckets per power of two (~1.6% relative
// error), truncated to LatMajors majors — values are nanoseconds, and 2^36ns ~= 69s is already
// beyond any latency this system can produce; larger values clamp into the
// last bucket.
const (
	latSubBucketBits = 5
	// LatSubBuckets is the number of minor buckets per major (power-of-two)
	// bucket.
	LatSubBuckets = 1 << latSubBucketBits
	// LatMajors is the number of major buckets.
	LatMajors = 36
	// NumLatBuckets is the total bucket count of one class's histogram.
	NumLatBuckets = LatMajors * LatSubBuckets
)

// LatBucketIndex maps a nanosecond value to its bucket.
func LatBucketIndex(v uint64) int {
	if v < LatSubBuckets {
		return int(v)
	}
	lz := 63 - bits.LeadingZeros64(v)
	shift := lz - latSubBucketBits
	idx := (shift+1)*LatSubBuckets + int(v>>uint(shift)) - LatSubBuckets
	if idx >= NumLatBuckets {
		return NumLatBuckets - 1
	}
	return idx
}

// LatBucketLow returns the smallest value mapping to bucket i (the
// quantile representative).
func LatBucketLow(i int) uint64 {
	if i < LatSubBuckets {
		return uint64(i)
	}
	shift := i/LatSubBuckets - 1
	sub := i % LatSubBuckets
	return (uint64(LatSubBuckets) + uint64(sub)) << uint(shift)
}

// LatSnapshot is one class's merged latency distribution: raw buckets plus
// count/sum/max, mergeable exactly (bucket-wise). All fields are monotone
// across snapshots of the same registry.
type LatSnapshot struct {
	Counts [NumLatBuckets]uint64
	Count  uint64
	Sum    uint64
	Max    uint64
}

// Record tallies one observation (nanoseconds): the plain single-writer
// recorder for code outside a LatRegistry, merged afterwards with Merge.
func (s *LatSnapshot) Record(ns uint64) {
	s.Counts[LatBucketIndex(ns)]++
	s.Count++
	s.Sum += ns
	if ns > s.Max {
		s.Max = ns
	}
}

// Merge adds o's observations into s bucket-by-bucket (exact).
func (s *LatSnapshot) Merge(o *LatSnapshot) {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Mean returns the mean in nanoseconds (0 when empty).
func (s *LatSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile approximates the q-quantile (0 <= q <= 1) with the lower bound
// of the bucket holding the observation of rank q*Count. Empty snapshots
// return 0; out-of-range q panics (always a harness bug).
func (s *LatSnapshot) Quantile(q float64) uint64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("obs: Quantile(%v) out of [0,1]", q))
	}
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen > target {
			return LatBucketLow(i)
		}
	}
	return LatBucketLow(NumLatBuckets - 1)
}

// String formats the percentile line the load generator and the latency
// ablation print.
func (s *LatSnapshot) String() string {
	if s.Count == 0 {
		return "empty histogram"
	}
	return fmt.Sprintf("n=%d mean=%.0fns p50=%d p90=%d p99=%d p99.9=%d max=%d",
		s.Count, s.Mean(), s.Quantile(0.50), s.Quantile(0.90),
		s.Quantile(0.99), s.Quantile(0.999), s.Max)
}

// LatClassSummary is the per-class quantile digest embedded in Metrics.
type LatClassSummary struct {
	Class  string  `json:"class"`
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P90Ns  uint64  `json:"p90_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	P999Ns uint64  `json:"p999_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// Summary digests the snapshot for class c.
func (s *LatSnapshot) Summary(c LatClass) LatClassSummary {
	return LatClassSummary{
		Class:  c.String(),
		Count:  s.Count,
		MeanNs: s.Mean(),
		P50Ns:  s.Quantile(0.50),
		P90Ns:  s.Quantile(0.90),
		P99Ns:  s.Quantile(0.99),
		P999Ns: s.Quantile(0.999),
		MaxNs:  s.Max,
	}
}

// LatSnapshotSet is every class's distribution from one registry merge (or
// several merged exactly with Merge).
type LatSnapshotSet struct {
	Classes [NumLatClasses]LatSnapshot
}

// Merge folds o into s class-by-class (exact).
func (s *LatSnapshotSet) Merge(o *LatSnapshotSet) {
	if o == nil {
		return
	}
	for i := range s.Classes {
		s.Classes[i].Merge(&o.Classes[i])
	}
}

// Summaries digests every class that recorded at least one observation,
// in class order.
func (s *LatSnapshotSet) Summaries() []LatClassSummary {
	var out []LatClassSummary
	for c := LatClass(0); c < NumLatClasses; c++ {
		if s.Classes[c].Count > 0 {
			out = append(out, s.Classes[c].Summary(c))
		}
	}
	return out
}

// MergeLatSummaries combines two already-digested summary lists, matching
// classes by name: counts sum, means and quantiles merge count-weighted
// (approximate — digests cannot be merged exactly; merge LatSnapshotSets
// when exactness matters, as Pool.Metrics does), maxes take the max. The
// result is in class order.
func MergeLatSummaries(a, b []LatClassSummary) []LatClassSummary {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]LatClassSummary(nil), b...)
	}
	byClass := make(map[string]LatClassSummary, len(a)+len(b))
	for _, s := range a {
		byClass[s.Class] = s
	}
	for _, o := range b {
		s, ok := byClass[o.Class]
		if !ok {
			byClass[o.Class] = o
			continue
		}
		n := s.Count + o.Count
		if n > 0 {
			wavg := func(x, y uint64) uint64 {
				return uint64((float64(x)*float64(s.Count) + float64(y)*float64(o.Count)) / float64(n))
			}
			s.MeanNs = (s.MeanNs*float64(s.Count) + o.MeanNs*float64(o.Count)) / float64(n)
			s.P50Ns = wavg(s.P50Ns, o.P50Ns)
			s.P90Ns = wavg(s.P90Ns, o.P90Ns)
			s.P99Ns = wavg(s.P99Ns, o.P99Ns)
			s.P999Ns = wavg(s.P999Ns, o.P999Ns)
		}
		s.Count = n
		if o.MaxNs > s.MaxNs {
			s.MaxNs = o.MaxNs
		}
		byClass[s.Class] = s
	}
	out := make([]LatClassSummary, 0, len(byClass))
	for c := LatClass(0); c < NumLatClasses; c++ {
		if s, ok := byClass[c.String()]; ok {
			out = append(out, s)
		}
	}
	return out
}

// LatRegistry hands out LatRecs and merges them: recs are never removed
// (handle registration is permanent, exactly like the counter Registry),
// every per-bucket count is monotone, and Merge serializes on the registry
// lock — so merged snapshots of the same registry are monotone too.
type LatRegistry struct {
	mu   sync.Mutex
	recs []*LatRec
}

// NewRec registers and returns a fresh recorder.
func (g *LatRegistry) NewRec() *LatRec {
	r := new(LatRec)
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
	return r
}

// Merge folds every recorder into one snapshot set.
func (g *LatRegistry) Merge() *LatSnapshotSet {
	set := new(LatSnapshotSet)
	g.mu.Lock()
	recs := g.recs
	g.mu.Unlock()
	for _, r := range recs {
		r.addTo(set)
	}
	return set
}

// WriteLatProm writes the set in the Prometheus text exposition format:
// one native cumulative histogram per non-empty class (coarsened to major
// buckets — 32 minor buckets per `le` line would bloat every scrape for
// precision histogram_quantile cannot use anyway) plus exact quantile
// gauges computed from the full-resolution buckets.
func WriteLatProm(w io.Writer, prefix string, set *LatSnapshotSet) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "# HELP %s_op_latency_ns Operation latency by class (ns).\n", prefix)
	fmt.Fprintf(bw, "# TYPE %s_op_latency_ns histogram\n", prefix)
	for c := LatClass(0); c < NumLatClasses; c++ {
		s := &set.Classes[c]
		if s.Count == 0 {
			continue
		}
		var cum uint64
		for m := 0; m < LatMajors; m++ {
			for i := m * LatSubBuckets; i < (m+1)*LatSubBuckets; i++ {
				cum += s.Counts[i]
			}
			if m == LatMajors-1 {
				break // the last major is the +Inf bucket below
			}
			fmt.Fprintf(bw, "%s_op_latency_ns_bucket{class=%q,le=\"%d\"} %d\n",
				prefix, c.String(), LatBucketLow((m+1)*LatSubBuckets)-1, cum)
		}
		fmt.Fprintf(bw, "%s_op_latency_ns_bucket{class=%q,le=\"+Inf\"} %d\n", prefix, c.String(), s.Count)
		fmt.Fprintf(bw, "%s_op_latency_ns_sum{class=%q} %d\n", prefix, c.String(), s.Sum)
		fmt.Fprintf(bw, "%s_op_latency_ns_count{class=%q} %d\n", prefix, c.String(), s.Count)
	}
	fmt.Fprintf(bw, "# HELP %s_op_latency_quantile_ns Latency quantiles by class (ns, full-resolution buckets).\n", prefix)
	fmt.Fprintf(bw, "# TYPE %s_op_latency_quantile_ns gauge\n", prefix)
	for c := LatClass(0); c < NumLatClasses; c++ {
		s := &set.Classes[c]
		if s.Count == 0 {
			continue
		}
		for _, q := range [...]struct {
			label string
			v     uint64
		}{
			{"0.5", s.Quantile(0.50)},
			{"0.9", s.Quantile(0.90)},
			{"0.99", s.Quantile(0.99)},
			{"0.999", s.Quantile(0.999)},
			{"max", s.Max},
		} {
			fmt.Fprintf(bw, "%s_op_latency_quantile_ns{class=%q,q=%q} %d\n", prefix, c.String(), q.label, q.v)
		}
		fmt.Fprintf(bw, "%s_op_latency_quantile_ns{class=%q,q=\"mean\"} %s\n",
			prefix, c.String(), strconv.FormatFloat(s.Mean(), 'g', -1, 64))
	}
	return bw.err
}
