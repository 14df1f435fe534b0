// Package obs is the deque's always-on observability layer: cheap
// per-handle counters for every paper transition, an aggregator that merges
// them into one Metrics snapshot with derived rates, latency histograms, a
// flight recorder of distress events, and a Prometheus text exporter.
//
// The paper's evaluation (Figs. 5-7) reasons entirely in terms of the
// transition mix — how often the interior fast paths (L1/L2) degrade into
// straddles (L3/L4), seals (L5), appends (L6), and removes (L7), how often
// the empty checks (E1-E3) fire, and how often elimination absorbs an
// operation. This package makes that mix measurable on every build.
//
// # Cost model
//
// Each handle owns a Rec: a cache-line-padded block of counters written
// only by its goroutine, so every increment is a plain add on a line
// nobody else writes (~1 cycle; see rec_on.go for the single-writer
// memory-model argument, and rec_race.go for the fully-atomic variant
// -race builds substitute). Metrics() reads the blocks from other
// goroutines with atomic loads; each counter is monotone, so merged sums
// are themselves monotone. The `obsoff` build tag compiles every
// increment to a no-op for A/B measurement of the layer's own cost
// (scripts/verify.sh's obs A/B gates the default build at <= 2% against it).
//
// # Counter semantics
//
// Transition counters (L1-L7) count successful transition CASes at that
// point, both sides merged (the right-side code is a mirror, exactly as in
// package chaos). Fail counters count lost CAS races at the point —
// including chaos-forced ones, which model lost races. Empty-check counters
// (E1-E3) count EMPTY certifications (the confirming re-read passed).
// Oracle counters account walks, hops, and restarts; edge-cache counters
// count operation cycles seeded from the per-handle cache vs. falling back
// to the real oracle; elimination counters count completed pushes/pops via
// a partner and failed scans.
package obs

import "sync"

// Counter indexes one per-handle counter in a Rec.
type Counter uint8

// Counter layout. The L/E blocks are contiguous and ordered so exporters
// and the aggregator can slice them; keep NumL/NumE in sync.
const (
	// CtrL1..CtrL7 count successful transitions, both sides merged
	// (L1 interior push, L2 interior pop, L3 straddling push, L4 boundary
	// pop, L5 seal, L6 append, L7 remove).
	CtrL1 Counter = iota
	CtrL2
	CtrL3
	CtrL4
	CtrL5
	CtrL6
	CtrL7
	// CtrE1..CtrE3 count EMPTY certifications by each empty check
	// (interior, straddling, boundary).
	CtrE1
	CtrE2
	CtrE3
	// CtrFailL1..CtrFailL7 count lost CAS races at each transition point:
	// the attempt reached its first CAS and the pair did not complete
	// (forced chaos failures count too — they model exactly this).
	CtrFailL1
	CtrFailL2
	CtrFailL3
	CtrFailL4
	CtrFailL5
	CtrFailL6
	CtrFailL7
	// CtrHintPublish counts global side-hint publish attempts initiated by
	// the handle (throttled interior publishes that fired, plus the
	// unconditional structural publishes).
	CtrHintPublish
	// CtrOracleWalk counts real oracle invocations; CtrOracleHop counts
	// walk steps; CtrOracleRestart counts walks abandoned for a fresh
	// global hint (hop budget, chaos, or dead territory).
	CtrOracleWalk
	CtrOracleHop
	CtrOracleRestart
	// CtrEdgeCacheHit counts operation cycles seeded from the per-handle
	// edge cache; CtrEdgeCacheMiss counts cycles that ran the real oracle.
	CtrEdgeCacheHit
	CtrEdgeCacheMiss
	// CtrElimPush/CtrElimPop count operations completed by elimination;
	// CtrElimMiss counts failed partner scans.
	CtrElimPush
	CtrElimPop
	CtrElimMiss

	// NumCounters is the size of a Rec's counter block.
	NumCounters
)

// NumL and NumE are the lengths of the transition and empty-check blocks.
const (
	NumL = 7
	NumE = 3
)

// FailOf maps a transition counter CtrL1..CtrL7 to its fail counter.
func FailOf(c Counter) Counter { return CtrFailL1 + (c - CtrL1) }

var counterNames = [NumCounters]string{
	"l1", "l2", "l3", "l4", "l5", "l6", "l7",
	"e1", "e2", "e3",
	"fail_l1", "fail_l2", "fail_l3", "fail_l4", "fail_l5", "fail_l6", "fail_l7",
	"hint_publish",
	"oracle_walk", "oracle_hop", "oracle_restart",
	"edge_cache_hit", "edge_cache_miss",
	"elim_push", "elim_pop", "elim_miss",
}

// String returns the counter's snake_case name as used by the exporters.
func (c Counter) String() string {
	if c < NumCounters {
		return counterNames[c]
	}
	return "counter(?)"
}

// Registry owns the Recs of one deque: every Register()ed handle gets one,
// and they are never removed — a dropped handle's counts stay in the
// aggregate, which is what makes Metrics() merge-consistent across handle
// churn. A Rec for a deque's handle-less internal walks can live here too.
type Registry struct {
	mu   sync.Mutex
	recs []*Rec
}

// NewRec allocates a fresh Rec and adds it to the registry.
func (g *Registry) NewRec() *Rec {
	r := new(Rec)
	g.mu.Lock()
	g.recs = append(g.recs, r)
	g.mu.Unlock()
	return r
}

// Handles returns the number of Recs ever issued.
func (g *Registry) Handles() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.recs)
}

// Merge sums every Rec's counters. Calls are serialized by the registry
// lock and each counter is individually monotone, so for any two calls A
// before B, every merged counter in B is >= its value in A.
func (g *Registry) Merge() [NumCounters]uint64 {
	var sum [NumCounters]uint64
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.recs {
		for c := Counter(0); c < NumCounters; c++ {
			sum[c] += r.Load(c)
		}
	}
	return sum
}

// Metrics is one aggregated observability snapshot: the merged counters of
// every handle the deque ever registered, plus structure-level occupancy
// gauges. Produced by Deque.Metrics(); all counter fields are monotone
// across snapshots of the same deque.
type Metrics struct {
	// Transitions[i] is the successful count of transition L(i+1);
	// TransitionFails[i] the lost CAS races at that point. Both sides of
	// the deque are merged, exactly as in the paper's figures.
	Transitions     [NumL]uint64 `json:"transitions"`
	TransitionFails [NumL]uint64 `json:"transition_fails"`
	// Empties[i] is the EMPTY certification count of check E(i+1).
	Empties [NumE]uint64 `json:"empties"`

	HintPublishes   uint64 `json:"hint_publishes"`
	OracleWalks     uint64 `json:"oracle_walks"`
	OracleHops      uint64 `json:"oracle_hops"`
	OracleRestarts  uint64 `json:"oracle_restarts"`
	EdgeCacheHits   uint64 `json:"edge_cache_hits"`
	EdgeCacheMisses uint64 `json:"edge_cache_misses"`
	ElimPushes      uint64 `json:"elim_pushes"`
	ElimPops        uint64 `json:"elim_pops"`
	ElimMisses      uint64 `json:"elim_misses"`

	// WatchdogThreshold is the livelock-watchdog streak length (gauge; the
	// fixed core.DefaultWatchdogThreshold).
	WatchdogThreshold uint64 `json:"watchdog_threshold,omitempty"`

	// Handles is the number of handles ever registered (dropped handles
	// keep counting: their counters are retained).
	Handles int `json:"handles"`

	// Node-registry occupancy. IDs are never reused, so NodesAllocated is
	// itself the lifetime high-water mark; NodesLive subtracts freed ones.
	NodesAllocated uint64 `json:"nodes_allocated"`
	NodesFreed     uint64 `json:"nodes_freed"`
	NodesLive      uint64 `json:"nodes_live"`
	NodeLimit      uint64 `json:"node_limit"`

	// Value-slab occupancy (generic Deque[T] only; zero for Uint32).
	// ValuesHighWater is the maximum number of simultaneously live values
	// ever resident (the slab's bump cursor: it only advances when the
	// freelists cannot satisfy a Put).
	ValuesHighWater uint64 `json:"values_high_water,omitempty"`
	ValueCapacity   uint64 `json:"value_capacity,omitempty"`

	// Node-memory account. MemNodesLive counts node structures currently retained
	// (chained + awaiting grace + pooled); MemNodesHighWater its lifetime
	// maximum; MemLimitNodes the configured hard bound (0 = unbounded).
	// NodesRetired/NodesRecycled are monotone counters; NodesLimbo is
	// retired-not-yet-freed and NodesPooled the current pool occupancy.
	MemNodesLive      uint64 `json:"mem_nodes_live,omitempty"`
	MemNodesHighWater uint64 `json:"mem_nodes_high_water,omitempty"`
	MemLimitNodes     uint64 `json:"mem_limit_nodes,omitempty"`
	NodesRetired      uint64 `json:"nodes_retired,omitempty"`
	NodesRecycled     uint64 `json:"nodes_recycled,omitempty"`
	NodesLimbo        uint64 `json:"nodes_limbo,omitempty"`
	NodesPooled       uint64 `json:"nodes_pooled,omitempty"`

	// Latency is the per-op-class latency digest (count, mean, p50/p90/
	// p99/p99.9, max) merged from the deque's latency registry, classes
	// with zero observations omitted. Empty on obsoff builds. Single core
	// ops are sampled (see LatClass); batch, steal-sweep, and
	// service classes record every operation.
	Latency []LatClassSummary `json:"latency,omitempty"`

	// FlightRecords counts distress events ever written to the flight
	// recorder (gauge of ring activity; the records themselves are read
	// via the flight-recorder accessors/endpoints).
	FlightRecords uint64 `json:"flight_records,omitempty"`
}

// FromCounters fills the counter-derived fields of a Metrics from a merged
// counter block; gauges are left for the caller.
func FromCounters(c [NumCounters]uint64) Metrics {
	var m Metrics
	for i := 0; i < NumL; i++ {
		m.Transitions[i] = c[CtrL1+Counter(i)]
		m.TransitionFails[i] = c[CtrFailL1+Counter(i)]
	}
	for i := 0; i < NumE; i++ {
		m.Empties[i] = c[CtrE1+Counter(i)]
	}
	m.HintPublishes = c[CtrHintPublish]
	m.OracleWalks = c[CtrOracleWalk]
	m.OracleHops = c[CtrOracleHop]
	m.OracleRestarts = c[CtrOracleRestart]
	m.EdgeCacheHits = c[CtrEdgeCacheHit]
	m.EdgeCacheMisses = c[CtrEdgeCacheMiss]
	m.ElimPushes = c[CtrElimPush]
	m.ElimPops = c[CtrElimPop]
	m.ElimMisses = c[CtrElimMiss]
	return m
}

// Counters is the inverse of FromCounters: the merged counter block laid
// back out by index, for exporters that iterate name tables.
func (m Metrics) Counters() [NumCounters]uint64 {
	var c [NumCounters]uint64
	for i := 0; i < NumL; i++ {
		c[CtrL1+Counter(i)] = m.Transitions[i]
		c[CtrFailL1+Counter(i)] = m.TransitionFails[i]
	}
	for i := 0; i < NumE; i++ {
		c[CtrE1+Counter(i)] = m.Empties[i]
	}
	c[CtrHintPublish] = m.HintPublishes
	c[CtrOracleWalk] = m.OracleWalks
	c[CtrOracleHop] = m.OracleHops
	c[CtrOracleRestart] = m.OracleRestarts
	c[CtrEdgeCacheHit] = m.EdgeCacheHits
	c[CtrEdgeCacheMiss] = m.EdgeCacheMisses
	c[CtrElimPush] = m.ElimPushes
	c[CtrElimPop] = m.ElimPops
	c[CtrElimMiss] = m.ElimMisses
	return c
}

// Pushes returns the number of completed push operations: every push
// completes through exactly one of interior push (L1), straddling push
// (L3), append (L6), or elimination.
func (m Metrics) Pushes() uint64 {
	return m.Transitions[0] + m.Transitions[2] + m.Transitions[5] + m.ElimPushes
}

// Pops returns the number of completed value-returning pops: interior pop
// (L2), boundary pop (L4), or elimination.
func (m Metrics) Pops() uint64 {
	return m.Transitions[1] + m.Transitions[3] + m.ElimPops
}

// EmptyPops returns the number of pops that certified EMPTY (E1+E2+E3).
func (m Metrics) EmptyPops() uint64 {
	return m.Empties[0] + m.Empties[1] + m.Empties[2]
}

// Ops returns the number of completed operations of any kind.
func (m Metrics) Ops() uint64 { return m.Pushes() + m.Pops() + m.EmptyPops() }

// Add accumulates o into m field-by-field (gauges take the maximum of
// NodeLimit/ValueCapacity and sum the rest) — used to merge the metrics of
// several deques, e.g. one per benchmark trial.
func (m *Metrics) Add(o Metrics) {
	for i := range m.Transitions {
		m.Transitions[i] += o.Transitions[i]
		m.TransitionFails[i] += o.TransitionFails[i]
	}
	for i := range m.Empties {
		m.Empties[i] += o.Empties[i]
	}
	m.HintPublishes += o.HintPublishes
	m.OracleWalks += o.OracleWalks
	m.OracleHops += o.OracleHops
	m.OracleRestarts += o.OracleRestarts
	m.EdgeCacheHits += o.EdgeCacheHits
	m.EdgeCacheMisses += o.EdgeCacheMisses
	m.ElimPushes += o.ElimPushes
	m.ElimPops += o.ElimPops
	m.ElimMisses += o.ElimMisses
	m.Handles += o.Handles
	m.NodesAllocated += o.NodesAllocated
	m.NodesFreed += o.NodesFreed
	m.NodesLive += o.NodesLive
	m.ValuesHighWater += o.ValuesHighWater
	m.MemNodesLive += o.MemNodesLive
	m.MemNodesHighWater += o.MemNodesHighWater
	m.NodesRetired += o.NodesRetired
	m.NodesRecycled += o.NodesRecycled
	m.NodesLimbo += o.NodesLimbo
	m.NodesPooled += o.NodesPooled
	if o.NodeLimit > m.NodeLimit {
		m.NodeLimit = o.NodeLimit
	}
	if o.MemLimitNodes > m.MemLimitNodes {
		m.MemLimitNodes = o.MemLimitNodes
	}
	if o.ValueCapacity > m.ValueCapacity {
		m.ValueCapacity = o.ValueCapacity
	}
	if o.WatchdogThreshold > m.WatchdogThreshold {
		m.WatchdogThreshold = o.WatchdogThreshold
	}
	m.FlightRecords += o.FlightRecords
	m.Latency = MergeLatSummaries(m.Latency, o.Latency)
}

// Derived are the rates the paper's discussion reasons in, computed from
// one snapshot. All ratios are 0 when their denominator is 0.
type Derived struct {
	// StraddleRatio is the fraction of successful transitions that were
	// NOT the interior fast paths L1/L2 — the paper's measure of how often
	// operations degrade into node-boundary work (L3-L7).
	StraddleRatio float64 `json:"straddle_ratio"`
	// SealRate is seals (L5) per completed operation.
	SealRate float64 `json:"seal_rate"`
	// CASFailureRatio is lost transition CAS races over all transition
	// attempts that reached a CAS (fails / (fails + successes)).
	CASFailureRatio float64 `json:"cas_failure_ratio"`
	// MeanOracleHops is oracle walk steps per completed operation.
	MeanOracleHops float64 `json:"mean_oracle_hops"`
	// ElimRate is the fraction of completed operations absorbed by
	// elimination.
	ElimRate float64 `json:"elim_rate"`
	// EdgeCacheHitRate is cache-seeded cycles over all seeded-oracle
	// cycles.
	EdgeCacheHitRate float64 `json:"edge_cache_hit_rate"`
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Derive computes the snapshot's derived rates.
func (m Metrics) Derive() Derived {
	var totalL, fails uint64
	for i := 0; i < NumL; i++ {
		totalL += m.Transitions[i]
		fails += m.TransitionFails[i]
	}
	ops := m.Ops()
	return Derived{
		StraddleRatio:    ratio(totalL-m.Transitions[0]-m.Transitions[1], totalL),
		SealRate:         ratio(m.Transitions[4], ops),
		CASFailureRatio:  ratio(fails, fails+totalL),
		MeanOracleHops:   ratio(m.OracleHops, ops),
		ElimRate:         ratio(m.ElimPushes+m.ElimPops, ops),
		EdgeCacheHitRate: ratio(m.EdgeCacheHits, m.EdgeCacheHits+m.EdgeCacheMisses),
	}
}
