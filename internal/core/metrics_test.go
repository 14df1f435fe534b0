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
// handle spans single pushes, single pops and whole batch calls alike, a
// batch call is one tick, and a negative rate records nothing. The calls
// run in four blocks — 40 PushLeft, 20 PushLeftN, 40 PopRight, 20
// PopRightN, 120 ticks. At rate 1 every call lands in its class's
// histogram. At rates 3 and 4 the gaps between samples are drawn from
// [rate-rate/2, rate+rate/2] (obs.LatGap), so every class is sampled and
// the total lies within what 120 ticks of such gaps allow.
func TestLatencySampleCadence(t *testing.T) {
	if !obs.Enabled {
		t.Skip("latency recording is compiled out (obsoff)")
	}
	const ticks = 120
	classes := []obs.LatClass{obs.LatPushLeft, obs.LatPopRight, obs.LatBatchPush, obs.LatBatchPop}
	for _, sample := range []int{4, 3, 1, -1} {
		d := New(Config{NodeSize: 8, MaxThreads: 2, LatSample: sample})
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
		var total uint64
		for i, c := range classes {
			got := set.Classes[c].Count
			total += got
			switch {
			case sample == 1:
				if want := uint64(40 - 20*(i/2)); got != want {
					t.Errorf("LatSample 1: %v count = %d, want %d", c, got, want)
				}
			case sample < 0:
				if got != 0 {
					t.Errorf("LatSample %d: %v count = %d, want 0", sample, c, got)
				}
			case got == 0:
				t.Errorf("LatSample %d: %v never sampled", sample, c)
			}
		}
		if sample > 1 {
			lo, hi := sample-sample/2, sample+sample/2
			if total < ticks/uint64(hi) || total > ticks/uint64(lo) {
				t.Errorf("LatSample %d: %d samples in %d ticks, want [%d, %d]",
					sample, total, ticks, ticks/hi, ticks/lo)
			}
		}
	}
}

// TestLatencySampleSeesEveryPhase runs one handle through 2^20
// PushLeft/PopRight pairs at the default rate: a period-2 op cycle. A
// fixed every-1024th countdown would sample only the pops; the drawn gaps
// must give each class at least a third of the samples.
func TestLatencySampleSeesEveryPhase(t *testing.T) {
	if !obs.Enabled {
		t.Skip("latency recording is compiled out (obsoff)")
	}
	d := New(Config{MaxThreads: 2})
	h := d.Register()
	for i := 0; i < 1<<20; i++ {
		if err := d.PushLeft(h, uint32(i)); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.PopRight(h); !ok {
			t.Fatal("PopRight found the deque empty")
		}
	}
	set := d.LatencySnapshot()
	push, pop := set.Classes[obs.LatPushLeft].Count, set.Classes[obs.LatPopRight].Count
	if total := push + pop; push*3 < total || pop*3 < total {
		t.Fatalf("push_left %d and pop_right %d samples, want each at least a third", push, pop)
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
