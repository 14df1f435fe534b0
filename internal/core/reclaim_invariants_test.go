package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/word"
)

// White-box regression tests for the reclamation invariants documented in
// reclaim.go (I0-I4): they drive markRetired/reinitNode/guard paths directly
// so each invariant is checked at the exact boundary it protects, not just
// statistically through the conformance battery.

// I0: a retired node is unresolvable the instant the retire guard is won —
// before its key reaches the hazard domain, before any scan. Stale
// hints and IDs must not be able to acquire a reference to a node whose
// grace period is running.
func TestRetireClearsRegistryImmediately(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 4})
		h := d.Register()
		edge, _, _ := d.oracle(h, obs.SideLeft, h.rec)
		if !d.guardNode(h, edge) {
			t.Fatal("live edge failed guard validation")
		}
		d.markRetired(h, edge)
		if d.resolve(edge.id) != nil {
			t.Fatal("retired node still resolvable before grace expiry")
		}
		if d.guardNode(h, edge) {
			t.Fatal("guard validated a retired node")
		}
		// The node parks in limbo so freeNode can recover the pointer.
		if d.limbo.Get(edge.id) != edge {
			t.Fatal("retired node missing from limbo")
		}
		// The once-guard makes retire idempotent across racing walks.
		before := d.nodesRetired.Load()
		d.markRetired(h, edge)
		if got := d.nodesRetired.Load(); got != before {
			t.Fatalf("double retire counted twice: %d -> %d", before, got)
		}
	})
}

// The once-guard carries through the whole lifecycle: two overlapping
// unregister walks retiring one node must hand it to the domain once, free
// it once and pool it once — a double pool would hand one node to two
// appenders.
func TestRetireExactlyOnce(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 4})
	h := d.Register()
	edge, _, _ := d.oracle(h, obs.SideLeft, h.rec)
	live, pooled := d.MemStats().LiveNodes, d.MemStats().Pooled
	d.markRetired(h, edge)
	d.markRetired(h, edge)
	h.Drain()
	ms := d.MemStats()
	if ms.Retired != 1 || ms.Freed != 1 {
		t.Fatalf("retired %d, freed %d; want exactly one each", ms.Retired, ms.Freed)
	}
	if ms.Pooled != pooled+1 {
		t.Fatalf("pool %d -> %d; want the node pooled exactly once", pooled, ms.Pooled)
	}
	if ms.LiveNodes != live {
		t.Fatalf("LiveNodes %d -> %d; a pooled node stays charged", live, ms.LiveNodes)
	}
	if d.resolve(edge.id) != nil {
		t.Fatal("pooled node still resolvable")
	}
}

// I1: reinitNode gives every slot a strict counter lead over its previous
// life, so a CAS armed with a word copied before the recycle can never
// succeed after it.
func TestReinitCountersDefeatCrossLifeCAS(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 4})
	h := d.Register()
	edge, _, _ := d.oracle(h, obs.SideLeft, h.rec)
	old := make([]uint64, d.sz)
	for i := range old {
		old[i] = edge.slots[i].Load()
	}
	d.reinitNode(edge, 1)
	for i := range old {
		nw := edge.slots[i].Load()
		if word.Ct(nw) < word.Ct(old[i])+2 {
			t.Fatalf("slot %d counter %d -> %d; want a two-step lead",
				i, word.Ct(old[i]), word.Ct(nw))
		}
		if edge.slots[i].CompareAndSwap(old[i], word.With(old[i], 7)) {
			t.Fatalf("slot %d: CAS armed with a prior-life word succeeded", i)
		}
	}
}

// Recycling is only sound if readers advertise what they read: after any
// operation the participant's slots must hold the nodes its edge cache
// relies on, and Drain must withdraw them so a parked handle pins nothing.
func TestHazardGuardsAdvertiseReads(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 4})
	h := d.Register()
	if err := d.PushLeft(h, 1); err != nil {
		t.Fatal(err)
	}
	snap := d.hazDom.Snapshot()
	if len(snap) == 0 {
		t.Fatal("no hazard advertisements after an operation: readers are invisible to the scan")
	}
	if h.edge[obs.SideLeft] != nil {
		if _, ok := snap[retireKey(h.edge[obs.SideLeft].id)]; !ok {
			t.Fatal("cached edge not advertised in the handle's hazard slots")
		}
	}
	h.Drain()
	if snap := d.hazDom.Snapshot(); len(snap) != 0 {
		t.Fatalf("Drain left %d advertisements standing", len(snap))
	}
}

// Drain must release cached spares: a spare returns to the pool, and when
// the pool is full it leaves the memory account — a stranded spare would
// otherwise permanently shrink the MaxLiveNodes budget.
func TestDrainReleasesCachedSpares(t *testing.T) {
	t.Run("pool_full", func(t *testing.T) {
		d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 1, MaxLiveNodes: 4})
		h := d.Register()
		edge, _, _ := d.oracle(h, obs.SideLeft, h.rec)
		if _, ok := h.shapeSpare(obs.SideLeft, 5, edge); !ok {
			t.Fatal("spare allocation failed")
		}
		sp := h.spare[obs.SideLeft]
		// Fill the one-node pool the way freeNode would: a fresh node
		// leaves the registry and parks in the pool.
		filler, fromPool, err := d.newNodeTry(2)
		if err != nil || fromPool {
			t.Fatalf("filler allocation = (%v, %v)", fromPool, err)
		}
		d.reg.Clear(filler.id)
		if !d.pool.Put(filler) {
			t.Fatal("empty pool refused the filler")
		}
		live := d.MemStats().LiveNodes
		h.Drain()
		if h.spare[obs.SideLeft] != nil {
			t.Fatal("Drain left the spare cached")
		}
		if got := d.MemStats().LiveNodes; got != live-1 {
			t.Fatalf("LiveNodes %d -> %d: stranded spare still charged", live, got)
		}
		if got := d.MemStats().Pooled; got != 1 {
			t.Fatalf("pool holds %d nodes past its capacity of 1", got)
		}
		if d.resolve(sp.id) != nil {
			t.Fatal("released spare still registered")
		}
	})
	t.Run("hazard", func(t *testing.T) {
		d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, PoolNodes: 4})
		h := d.Register()
		edge, _, _ := d.oracle(h, obs.SideLeft, h.rec)
		if _, ok := h.shapeSpare(obs.SideLeft, 5, edge); !ok {
			t.Fatal("spare allocation failed")
		}
		sp := h.spare[obs.SideLeft]
		pooled := d.MemStats().Pooled
		h.Drain()
		if h.spare[obs.SideLeft] != nil {
			t.Fatal("Drain left the spare cached")
		}
		if got := d.MemStats().Pooled; got != pooled+1 {
			t.Fatalf("pool %d -> %d: released spare not pooled", pooled, got)
		}
		if d.resolve(sp.id) != nil {
			t.Fatal("released spare still registered")
		}
	})
}
