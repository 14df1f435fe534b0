package core

import (
	"sync"
	"testing"

	"repro/internal/dequetest"
)

// Conformance over the recycling configuration: tiny nodes cross node
// boundaries constantly and a tiny pool forces immediate reuse, so the
// battery's linearizability trials run with maximum ABA-resurrection
// pressure (invariants I1-I4 in reclaim.go are what they exercise).

func TestConformanceReclaimHazard(t *testing.T) {
	dequetest.RunAll(t, func() dequetest.Instance {
		return inst{New(Config{NodeSize: MinNodeSize, MaxThreads: 32, PoolNodes: 4})}
	})
}

func TestLinearizabilityReclaimHazardTinyPool(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	dequetest.RunLinearizability(t, func() dequetest.Instance {
		return inst{New(Config{NodeSize: MinNodeSize, MaxThreads: 32, PoolNodes: 2})}
	}, trials)
}

// churnNodes drives enough single-handle queue-pattern traffic through d to
// retire many nodes: pushes on the left, pops on the right, crossing a node
// boundary every couple of ops at MinNodeSize.
func churnNodes(d *Deque, h *Handle, ops int) {
	for i := 0; i < ops; i++ {
		if err := d.PushLeft(h, uint32(i)); err != nil {
			panic(err)
		}
		if _, ok := d.PopRight(h); !ok {
			panic("queue pattern lost a value")
		}
	}
}

func TestRecyclingRoundTrip(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 8})
		h := d.Register()
		churnNodes(d, h, 4000)
		h.Drain()
		ms := d.MemStats()
		if ms.Retired == 0 {
			t.Fatal("no nodes retired by 4000 boundary-crossing ops")
		}
		if ms.Freed == 0 {
			t.Fatal("grace never expired: nothing freed")
		}
		if ms.Recycled == 0 {
			t.Fatal("pool never reused a node")
		}
		if ms.Pooled > 8 {
			t.Fatalf("pool occupancy %d exceeds its bound 8", ms.Pooled)
		}
		// Single quiescent handle: everything retired must have been
		// freed by Drain.
		if ms.Freed != ms.Retired {
			t.Fatalf("retired %d != freed %d after quiescent Drain",
				ms.Retired, ms.Freed)
		}
		if h.PendingRetires() != 0 {
			t.Fatalf("PendingRetires = %d after Drain", h.PendingRetires())
		}
		// The steady-state queue pattern needs only a handful of live
		// nodes plus reclamation slack — the pool (8) and one scan
		// threshold of pending retires — nowhere near the ~2000 nodes
		// the pattern churned through.
		if ms.LiveNodes > ms.HighWater || ms.HighWater > 128 {
			t.Fatalf("live=%d highwater=%d: recycling failed to bound footprint",
				ms.LiveNodes, ms.HighWater)
		}
	})
}

func TestPendingRetiresVisibleBeforeDrain(t *testing.T) {
	// A single participant: retires sit on the handle's hazard list until
	// it reaches the scan threshold, so shortly after churn the handle must
	// report pending work, and Drain must clear it.
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 8})
	h := d.Register()
	churnNodes(d, h, 40)
	if h.PendingRetires() == 0 {
		t.Fatal("expected limbo retires right after churn")
	}
	h.Drain()
	if n := h.PendingRetires(); n != 0 {
		t.Fatalf("PendingRetires = %d after Drain, want 0", n)
	}
}

func TestMaxLiveNodesErrFull(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		const limit = 6
		d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 4, MaxLiveNodes: limit})
		h := d.Register()
		// Fill until the node bound trips. MinNodeSize holds 2 values
		// per node, so the bound must trip within ~2*limit+2 pushes.
		var pushed int
		for i := 0; i < 4*limit; i++ {
			err := d.PushLeft(h, uint32(i))
			if err == ErrFull {
				break
			}
			if err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			pushed++
		}
		if pushed == 4*limit {
			t.Fatalf("bound %d never tripped after %d pushes", limit, pushed)
		}
		if ms := d.MemStats(); ms.HighWater > limit {
			t.Fatalf("high-water %d exceeds bound %d", ms.HighWater, limit)
		}
		// Draining the deque and the grace domain must make room again.
		for i := 0; i < pushed; i++ {
			if _, ok := d.PopRight(h); !ok {
				t.Fatalf("pop %d of %d failed", i, pushed)
			}
		}
		h.Drain()
		if err := d.PushLeft(h, 99); err != nil {
			t.Fatalf("push after drain: %v", err)
		}
		if v, ok := d.PopLeft(h); !ok || v != 99 {
			t.Fatalf("PopLeft = %v, %v after refill", v, ok)
		}
	})
}

// TestMemoryLimitSustainedChurn is the acceptance test for the hard bound:
// concurrent boundary-crossing churn against a small MaxLiveNodes for
// thousands of ops. The bound must hold at the high-water mark, exhaustion
// must surface as ErrFull (never a panic), and the deque must keep making
// progress throughout.
func TestMemoryLimitSustainedChurn(t *testing.T) {
	const (
		limit   = 16
		workers = 4
		opsPer  = 5000
	)
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: workers + 1,
		PoolNodes: limit, MaxLiveNodes: limit})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			var full int
			for i := 0; i < opsPer; i++ {
				if (i+w)%2 == 0 {
					if err := d.PushLeft(h, uint32(i)); err == ErrFull {
						full++
						d.PopRight(h) // make room, keep churning
					} else if err != nil {
						t.Errorf("worker %d push: %v", w, err)
						return
					}
				} else {
					d.PopRight(h)
				}
			}
			h.Drain()
		}(w)
	}
	wg.Wait()
	ms := d.MemStats()
	if ms.HighWater > limit {
		t.Fatalf("high-water %d exceeded MaxLiveNodes %d", ms.HighWater, limit)
	}
	if ms.LimitNodes != limit {
		t.Fatalf("LimitNodes = %d, want %d", ms.LimitNodes, limit)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatalf("invariant after sustained churn: %v", err)
	}
}
