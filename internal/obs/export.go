package obs

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"strconv"
)

// Exporters: Prometheus text exposition and pprof goroutine labeling.
// These are deliberately dependency-free — the Prometheus format is the
// plain text exposition format, written by hand.

// WriteProm writes m in the Prometheus text exposition format, every
// metric name prefixed with prefix (e.g. "deque"). Counter semantics
// follow the package doc; derived rates export as gauges.
func WriteProm(w io.Writer, prefix string, m Metrics) error {
	bw := &errWriter{w: w}
	counter := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s_%s %s\n# TYPE %s_%s counter\n", prefix, name, help, prefix, name)
	}
	gauge := func(name, help string) {
		fmt.Fprintf(bw, "# HELP %s_%s %s\n# TYPE %s_%s gauge\n", prefix, name, help, prefix, name)
	}

	counter("transitions_total", "Successful transitions by paper point (both sides merged).")
	for i := 0; i < NumL; i++ {
		fmt.Fprintf(bw, "%s_transitions_total{point=\"L%d\"} %d\n", prefix, i+1, m.Transitions[i])
	}
	counter("transition_fails_total", "Lost transition CAS races by paper point.")
	for i := 0; i < NumL; i++ {
		fmt.Fprintf(bw, "%s_transition_fails_total{point=\"L%d\"} %d\n", prefix, i+1, m.TransitionFails[i])
	}
	counter("empty_total", "EMPTY certifications by empty check.")
	for i := 0; i < NumE; i++ {
		fmt.Fprintf(bw, "%s_empty_total{check=\"E%d\"} %d\n", prefix, i+1, m.Empties[i])
	}
	counter("ops_total", "Completed operations by kind.")
	fmt.Fprintf(bw, "%s_ops_total{op=\"push\"} %d\n", prefix, m.Pushes())
	fmt.Fprintf(bw, "%s_ops_total{op=\"pop\"} %d\n", prefix, m.Pops())
	fmt.Fprintf(bw, "%s_ops_total{op=\"empty\"} %d\n", prefix, m.EmptyPops())

	simple := []struct {
		name, help string
		v          uint64
	}{
		{"hint_publishes_total", "Global side-hint publish attempts.", m.HintPublishes},
		{"oracle_walks_total", "Oracle invocations that ran a real walk.", m.OracleWalks},
		{"oracle_hops_total", "Oracle walk steps.", m.OracleHops},
		{"oracle_restarts_total", "Oracle walks abandoned for a fresh hint.", m.OracleRestarts},
		{"edge_cache_hits_total", "Operation cycles seeded from the per-handle edge cache.", m.EdgeCacheHits},
		{"edge_cache_misses_total", "Operation cycles that ran the real oracle.", m.EdgeCacheMisses},
		{"elim_push_total", "Pushes completed by elimination.", m.ElimPushes},
		{"elim_pop_total", "Pops completed by elimination.", m.ElimPops},
		{"elim_miss_total", "Failed elimination partner scans.", m.ElimMisses},
	}
	for _, s := range simple {
		counter(s.name, s.help)
		fmt.Fprintf(bw, "%s_%s %d\n", prefix, s.name, s.v)
	}

	gauges := []struct {
		name, help string
		v          uint64
	}{
		{"handles", "Handles ever registered.", uint64(m.Handles)},
		{"nodes_allocated", "Node IDs ever allocated (lifetime high-water mark).", m.NodesAllocated},
		{"nodes_freed", "Nodes removed and unregistered.", m.NodesFreed},
		{"nodes_live", "Nodes currently on or reachable from the chain.", m.NodesLive},
		{"node_limit", "Node registry ID-space limit.", m.NodeLimit},
		{"values_high_water", "Maximum simultaneously resident values (slab bump cursor).", m.ValuesHighWater},
		{"value_capacity", "Value slab occupancy limit.", m.ValueCapacity},
		{"mem_nodes_live", "Node structures currently retained (chained+limbo+pooled).", m.MemNodesLive},
		{"mem_nodes_high_water", "Lifetime maximum of mem_nodes_live.", m.MemNodesHighWater},
		{"mem_limit_nodes", "Configured live-node hard bound (0 = unbounded).", m.MemLimitNodes},
		{"nodes_retired", "Nodes handed to the reclamation grace domain.", m.NodesRetired},
		{"nodes_recycled", "Node pool reuses.", m.NodesRecycled},
		{"nodes_limbo", "Nodes retired but not yet past their grace period.", m.NodesLimbo},
		{"nodes_pooled", "Current node pool occupancy.", m.NodesPooled},
		{"watchdog_threshold", "Effective livelock-watchdog streak length.", m.WatchdogThreshold},
	}
	for _, g := range gauges {
		gauge(g.name, g.help)
		fmt.Fprintf(bw, "%s_%s %d\n", prefix, g.name, g.v)
	}

	d := m.Derive()
	rates := []struct {
		name, help string
		v          float64
	}{
		{"straddle_ratio", "Fraction of transitions that were not interior L1/L2.", d.StraddleRatio},
		{"seal_rate", "Seals (L5) per completed operation.", d.SealRate},
		{"cas_failure_ratio", "Lost transition CASes over all attempted.", d.CASFailureRatio},
		{"mean_oracle_hops", "Oracle walk steps per completed operation.", d.MeanOracleHops},
		{"elim_rate", "Fraction of operations completed by elimination.", d.ElimRate},
		{"edge_cache_hit_rate", "Cache-seeded cycles over all seeded-oracle cycles.", d.EdgeCacheHitRate},
	}
	for _, r := range rates {
		gauge(r.name, r.help)
		fmt.Fprintf(bw, "%s_%s %s\n", prefix, r.name, strconv.FormatFloat(r.v, 'g', -1, 64))
	}
	return bw.err
}

// errWriter latches the first write error so WriteProm stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, nil
}

// Do runs f in a goroutine-local pprof label scope tagging it as a deque
// worker (labels: deque_op, deque_worker), so CPU profiles of push/pop
// goroutines can be sliced by workload role in `go tool pprof -tagfocus`.
func Do(op string, worker int, f func()) {
	pprof.Do(context.Background(), pprof.Labels(
		"deque_op", op,
		"deque_worker", strconv.Itoa(worker),
	), func(context.Context) { f() })
}
