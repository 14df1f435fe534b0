package deque

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestMetricsWorkloadIdentity is the acceptance check for the observability
// layer at the public API: under a concurrent mixed workload (elimination
// on), the aggregate snapshot must satisfy the op identities — pushes
// complete through exactly one of L1, L3, L6, or elimination; pops through
// L2, L4, or elimination — against ground-truth per-worker tallies.
func TestMetricsWorkloadIdentity(t *testing.T) {
	const workers = 4
	d := New[uint32](WithNodeSize(16), WithMaxThreads(workers+1), WithElimination(true))

	var wg sync.WaitGroup
	tallies := make([]struct{ pushes, pops, empties uint64 }, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			tl := &tallies[w]
			for i := 0; i < 20000; i++ {
				switch (i + w) % 4 {
				case 0, 1:
					if h.PushLeft(uint32(i)) == nil {
						tl.pushes++
					}
				case 2:
					if _, ok := h.PopLeft(); ok {
						tl.pops++
					} else {
						tl.empties++
					}
				case 3:
					if _, ok := h.PopRight(); ok {
						tl.pops++
					} else {
						tl.empties++
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if !MetricsEnabled {
		t.Skip("observability counters compiled out (obsoff)")
	}
	var pushes, pops, empties uint64
	for _, tl := range tallies {
		pushes += tl.pushes
		pops += tl.pops
		empties += tl.empties
	}
	m := d.Metrics()
	if got := m.Transitions[0] + m.Transitions[2] + m.Transitions[5] + m.ElimPushes; got != pushes {
		t.Errorf("L1+L3+L6+elim = %d, want %d pushes", got, pushes)
	}
	if got := m.Transitions[1] + m.Transitions[3] + m.ElimPops; got != pops {
		t.Errorf("L2+L4+elim = %d, want %d pops", got, pops)
	}
	if got := m.EmptyPops(); got != empties {
		t.Errorf("E1+E2+E3 = %d, want %d empty pops", got, empties)
	}
	// Slab gauges: the generic layer parks every resident value, so the
	// high-water mark is at least the residue and within the capacity.
	if m.ValuesHighWater == 0 || m.ValuesHighWater < uint64(d.Len()) {
		t.Errorf("ValuesHighWater = %d with %d resident", m.ValuesHighWater, d.Len())
	}
	if m.ValuesHighWater > m.ValueCapacity {
		t.Errorf("ValuesHighWater %d exceeds ValueCapacity %d", m.ValuesHighWater, m.ValueCapacity)
	}
	// Derived rates must be finite fractions.
	der := m.Derive()
	for name, v := range map[string]float64{
		"straddle": der.StraddleRatio, "casfail": der.CASFailureRatio,
		"elim": der.ElimRate, "cachehit": der.EdgeCacheHitRate,
	} {
		if v < 0 || v > 1 {
			t.Errorf("derived %s = %v out of [0,1]", name, v)
		}
	}
}

// TestWriteMetricsProm checks the Prometheus text exporter at the public
// API: well-formed exposition with the configured prefix.
func TestWriteMetricsProm(t *testing.T) {
	d := New[int](WithNodeSize(8))
	h := d.Register()
	for i := 0; i < 3; i++ {
		if err := h.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, "dq", d.Metrics()); err != nil {
		t.Fatalf("WriteMetricsProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`dq_transitions_total{point="L1"}`,
		`dq_ops_total{op="push"}`,
		"dq_values_high_water",
		"dq_straddle_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if MetricsEnabled && !strings.Contains(out, `dq_ops_total{op="push"} 3`) {
		t.Errorf("exposition push count wrong:\n%s", out)
	}
	if !strings.Contains(out, "dq_watchdog_threshold 256") {
		t.Errorf("exposition missing %q", "dq_watchdog_threshold 256")
	}
}

// TestWatchdogThresholdInMetrics pins the watchdog threshold gauge at its
// one value.
func TestWatchdogThresholdInMetrics(t *testing.T) {
	d := New[int]()
	if got := d.Metrics().WatchdogThreshold; got != 256 {
		t.Fatalf("default WatchdogThreshold gauge = %d, want 256", got)
	}
}
