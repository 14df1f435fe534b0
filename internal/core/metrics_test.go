package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestMetricsScriptedExact runs a deterministic single-threaded script over
// a tiny-node deque and asserts the aggregate counters exactly: with no
// concurrency and no chaos, every operation completes on its first attempt,
// so the op identities are equalities and every fail counter is zero.
func TestMetricsScriptedExact(t *testing.T) {
	if !obs.Enabled {
		t.Skip("observability counters compiled out (obsoff)")
	}
	d := New(Config{NodeSize: 8, MaxThreads: 2})
	h := d.Register()

	var pushes, pops, empties uint64
	push := func(f func(*Handle, uint32) error, v uint32) {
		if err := f(h, v); err != nil {
			t.Fatalf("push: %v", err)
		}
		pushes++
	}
	pop := func(f func(*Handle) (uint32, bool)) {
		if _, ok := f(h); ok {
			pops++
		} else {
			empties++
		}
	}

	// Cross node boundaries in both directions: grow 20 to the right (L1,
	// L6), drain 22 from the left (L2, L4, L5, L7, and two E overshoots),
	// then a small left-side round trip.
	for i := 0; i < 20; i++ {
		push(d.PushRight, uint32(i))
	}
	for i := 0; i < 22; i++ {
		pop(d.PopLeft)
	}
	for i := 0; i < 5; i++ {
		push(d.PushLeft, uint32(100+i))
	}
	for i := 0; i < 6; i++ {
		pop(d.PopRight)
	}

	m := d.Metrics()
	if got := m.Pushes(); got != pushes {
		t.Errorf("Pushes() = %d, want %d (L=%v elim=%d)", got, pushes, m.Transitions, m.ElimPushes)
	}
	if got := m.Pops(); got != pops {
		t.Errorf("Pops() = %d, want %d (L=%v elim=%d)", got, pops, m.Transitions, m.ElimPops)
	}
	if got := m.EmptyPops(); got != empties {
		t.Errorf("EmptyPops() = %d, want %d (E=%v)", got, empties, m.Empties)
	}
	for i, f := range m.TransitionFails {
		if f != 0 {
			t.Errorf("TransitionFails[L%d] = %d, want 0 single-threaded", i+1, f)
		}
	}

	// The structural transitions must agree with the handle's own counters
	// and the node registry's gauges.
	st := h.Stats()
	if m.Transitions[5] != st.Appends {
		t.Errorf("L6 = %d, Stats().Appends = %d", m.Transitions[5], st.Appends)
	}
	if m.Transitions[6] != st.Removes {
		t.Errorf("L7 = %d, Stats().Removes = %d", m.Transitions[6], st.Removes)
	}
	if m.Transitions[5] == 0 {
		t.Error("script never appended a node; geometry regressed")
	}
	if m.NodesAllocated != 1+m.Transitions[5] {
		t.Errorf("NodesAllocated = %d, want 1 + L6 = %d", m.NodesAllocated, 1+m.Transitions[5])
	}
	if m.NodesFreed != m.Transitions[6] {
		t.Errorf("NodesFreed = %d, want L7 = %d", m.NodesFreed, m.Transitions[6])
	}
	if m.NodesLive != m.NodesAllocated-m.NodesFreed {
		t.Errorf("NodesLive = %d, want %d", m.NodesLive, m.NodesAllocated-m.NodesFreed)
	}
	if m.Handles != 1 {
		t.Errorf("Handles = %d, want 1", m.Handles)
	}
}

// TestMetricsConcurrentMonotone hammers the deque from several handles
// while a sampler repeatedly snapshots Metrics, requiring every counter to
// be monotone across snapshots; at quiescence the op identities must hold
// against ground-truth per-worker tallies.
func TestMetricsConcurrentMonotone(t *testing.T) {
	const workers = 4
	d := New(Config{NodeSize: 16, MaxThreads: workers + 1, Elimination: true})

	var wg sync.WaitGroup
	var stop = make(chan struct{})
	tallies := make([]struct{ pushes, pops, empties uint64 }, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			tl := &tallies[w]
			for i := 0; i < 30000; i++ {
				switch i % 4 {
				case 0:
					if d.PushLeft(h, uint32(i)) == nil {
						tl.pushes++
					}
				case 1:
					if d.PushRight(h, uint32(i)) == nil {
						tl.pushes++
					}
				case 2:
					if _, ok := d.PopLeft(h); ok {
						tl.pops++
					} else {
						tl.empties++
					}
				case 3:
					if _, ok := d.PopRight(h); ok {
						tl.pops++
					} else {
						tl.empties++
					}
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	prev := d.Metrics().Counters()
	for sampling := true; sampling; {
		select {
		case <-stop:
			sampling = false
		default:
		}
		cur := d.Metrics().Counters()
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			if cur[c] < prev[c] {
				t.Fatalf("counter %v went backwards: %d -> %d", c, prev[c], cur[c])
			}
		}
		prev = cur
	}

	if !obs.Enabled {
		return
	}
	var pushes, pops, empties uint64
	for _, tl := range tallies {
		pushes += tl.pushes
		pops += tl.pops
		empties += tl.empties
	}
	m := d.Metrics()
	if got := m.Pushes(); got != pushes {
		t.Errorf("Pushes() = %d, want %d", got, pushes)
	}
	if got := m.Pops(); got != pops {
		t.Errorf("Pops() = %d, want %d", got, pops)
	}
	if got := m.EmptyPops(); got != empties {
		t.Errorf("EmptyPops() = %d, want %d", got, empties)
	}
	if m.Handles != workers {
		t.Errorf("Handles = %d, want %d", m.Handles, workers)
	}
}

// TestMetricsMergeConsistentAcrossChurn registers handles in waves, letting
// each wave's goroutines finish and drop their handles before the next
// begins. The merged aggregate must retain dropped handles' counts: each
// wave's snapshot dominates the previous one, and the final identities hold
// over the union of all waves' work.
func TestMetricsMergeConsistentAcrossChurn(t *testing.T) {
	const waves, perWave, opsEach = 4, 8, 2000
	d := New(Config{NodeSize: 16, MaxThreads: waves*perWave + 1})

	var pushes, pops, empties uint64
	prev := d.Metrics().Counters()
	for wave := 0; wave < waves; wave++ {
		results := make([]struct{ pushes, pops, empties uint64 }, perWave)
		var wg sync.WaitGroup
		for g := 0; g < perWave; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := d.Register() // dropped at goroutine exit: churn
				r := &results[g]
				for i := 0; i < opsEach; i++ {
					if i%3 != 2 {
						if d.PushRight(h, uint32(i)) == nil {
							r.pushes++
						}
					} else if _, ok := d.PopLeft(h); ok {
						r.pops++
					} else {
						r.empties++
					}
				}
			}(g)
		}
		wg.Wait()
		for _, r := range results {
			pushes += r.pushes
			pops += r.pops
			empties += r.empties
		}
		cur := d.Metrics().Counters()
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			if cur[c] < prev[c] {
				t.Fatalf("wave %d: counter %v lost counts after churn: %d -> %d",
					wave, c, prev[c], cur[c])
			}
		}
		prev = cur
	}

	m := d.Metrics()
	if m.Handles != waves*perWave {
		t.Errorf("Handles = %d, want %d", m.Handles, waves*perWave)
	}
	if !obs.Enabled {
		return
	}
	if got := m.Pushes(); got != pushes {
		t.Errorf("Pushes() = %d, want %d across churned handles", got, pushes)
	}
	if got := m.Pops(); got != pops {
		t.Errorf("Pops() = %d, want %d across churned handles", got, pops)
	}
	if got := m.EmptyPops(); got != empties {
		t.Errorf("EmptyPops() = %d, want %d across churned handles", got, empties)
	}
}

// TestLatencySampleCadence pins the latency sampler: one countdown per
// handle spans single pushes, single pops and whole batch calls alike, so
// every LatSample-th call lands in its class's histogram, a batch call is
// one tick, and a negative rate records nothing. The calls run in four
// blocks — 40 PushLeft, 20 PushLeftN, 40 PopRight, 20 PopRightN — so at
// rate 3 the batch blocks start mid-interval and only a shared countdown
// gives 13/7/13/7.
func TestLatencySampleCadence(t *testing.T) {
	if !obs.Enabled {
		t.Skip("latency recording is compiled out (obsoff)")
	}
	for _, tc := range []struct {
		sample, single, batch int
	}{{4, 10, 5}, {3, 13, 7}, {1, 40, 20}, {-1, 0, 0}} {
		d := New(Config{NodeSize: 8, MaxThreads: 2, LatSample: tc.sample})
		h := d.Register()
		for i := 0; i < 40; i++ {
			if err := d.PushLeft(h, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if _, err := d.PushLeftN(h, []uint32{1, 2}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			d.PopRight(h)
		}
		dst := make([]uint32, 2)
		for i := 0; i < 20; i++ {
			if n := d.PopRightN(h, dst); n != 2 {
				t.Fatalf("PopRightN = %d, want 2", n)
			}
		}
		set := d.LatencySnapshot()
		for _, c := range []struct {
			class obs.LatClass
			want  int
		}{
			{obs.LatPushLeft, tc.single}, {obs.LatPopRight, tc.single},
			{obs.LatBatchPush, tc.batch}, {obs.LatBatchPop, tc.batch},
		} {
			if got := set.Classes[c.class].Count; got != uint64(c.want) {
				t.Errorf("LatSample %d: %v count = %d, want %d", tc.sample, c.class, got, c.want)
			}
		}
	}
}

// TestWatchdogThresholdConfig checks the watchdog threshold reaches
// Metrics.
func TestWatchdogThresholdConfig(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2})
	if got := d.Metrics().WatchdogThreshold; got != DefaultWatchdogThreshold {
		t.Fatalf("default WatchdogThreshold = %d, want %d", got, DefaultWatchdogThreshold)
	}
}
