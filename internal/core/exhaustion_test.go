package core

import (
	"errors"
	"testing"
)

// These tests pin the node-registry exhaustion contract at the core level:
// when the ID space (Config.RegistryLimit) runs out, pushes that need a
// fresh node degrade to a typed ErrFull — no panic, nothing pushed — while
// every operation not needing an allocation (pops, pushes into existing
// slots, and appends the node pool can serve) keeps working. A removed node
// keeps its ID and comes back through the pool, so a drained deque regains
// slot space and as much append capacity as the pool took back; only a
// stream that keeps removing nodes as it appends them runs indefinitely on a
// spent registry.

func TestRegistryExhaustionGraceful(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, RegistryLimit: 1})
	h := d.Register()

	// Fill leftward until the registry is spent, then fill the right side's
	// remaining slot space too (exhausting the registry from the left still
	// leaves allocation-free room in existing nodes on the right). Every
	// failure must be ErrFull and must not have pushed its value.
	pushedL := 0
	for {
		if pushedL > 1<<20 {
			t.Fatal("registry limit never enforced")
		}
		if err := d.PushLeft(h, uint32(pushedL)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("PushLeft = %v, want ErrFull", err)
			}
			break
		}
		pushedL++
	}
	if pushedL == 0 {
		t.Fatal("no push succeeded before exhaustion")
	}
	pushed := pushedL
	for {
		if pushed > 1<<20 {
			t.Fatal("registry limit never enforced on the right")
		}
		if err := d.PushRight(h, uint32(pushed)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("PushRight = %v, want ErrFull", err)
			}
			break
		}
		pushed++
	}
	if got := d.Len(); got != pushed {
		t.Fatalf("Len = %d after exhaustion, want %d", got, pushed)
	}
	// Exhaustion is stable: repeated attempts keep failing identically on
	// both sides without corrupting the chain.
	for i := 0; i < 50; i++ {
		if err := d.PushLeft(h, 1); !errors.Is(err, ErrFull) {
			t.Fatalf("PushLeft on exhausted registry = %v, want ErrFull", err)
		}
		if err := d.PushRight(h, 1); !errors.Is(err, ErrFull) {
			t.Fatalf("PushRight on exhausted registry = %v, want ErrFull", err)
		}
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatalf("invariant after failed pushes: %v", err)
	}

	// Pops are allocation-free and must drain everything: left-pushed
	// values come back LIFO, then the right-pushed ones FIFO.
	for i := pushedL - 1; i >= 0; i-- {
		v, ok := d.PopLeft(h)
		if !ok || v != uint32(i) {
			t.Fatalf("PopLeft = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	for i := pushedL; i < pushed; i++ {
		v, ok := d.PopLeft(h)
		if !ok || v != uint32(i) {
			t.Fatalf("PopLeft = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := d.PopLeft(h); ok {
		t.Fatal("extra value after drain")
	}

	// Drained: slot space in the surviving node is usable again, and append
	// capacity is what the pool took back from the drain — pushes work
	// until the pool runs dry, then ErrFull returns. The drain parks the free span at one end of the
	// surviving node, so one side can push allocation-free and the other
	// may immediately need an append; accept either side.
	push, pop := d.PushLeft, d.PopLeft
	if err := push(h, 0); errors.Is(err, ErrFull) {
		push, pop = d.PushRight, d.PopRight
		if err := push(h, 0); err != nil {
			t.Fatalf("neither side has a reusable slot after drain: %v", err)
		}
	} else if err != nil {
		t.Fatalf("PushLeft after drain = %v", err)
	}
	reused := 1
	for {
		if reused > pushed {
			t.Fatalf("reused %d slots, more than ever fit before", reused)
		}
		if err := push(h, uint32(reused)); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("push after drain = %v, want ErrFull", err)
			}
			break
		}
		reused++
	}
	for i := reused - 1; i >= 0; i-- {
		if v, ok := pop(h); !ok || v != uint32(i) {
			t.Fatalf("final drain[%d] = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
}

// TestBatchPushRegistryPrefix pins the batch contract across the exhaustion
// boundary: a PushLeftN that hits the registry wall mid-batch reports how
// many elements landed, leaves exactly that prefix pushed, and the deque
// holds exactly those values.
func TestBatchPushRegistryPrefix(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, RegistryLimit: 1})
	h := d.Register()

	batch := make([]uint32, 1<<16)
	for i := range batch {
		batch[i] = uint32(i)
	}
	n, err := d.PushLeftN(h, batch)
	if !errors.Is(err, ErrFull) {
		t.Fatalf("oversized PushLeftN err = %v, want ErrFull", err)
	}
	if n <= 0 || n >= len(batch) {
		t.Fatalf("oversized PushLeftN landed %d of %d, want a proper prefix", n, len(batch))
	}
	if got := d.Len(); got != n {
		t.Fatalf("Len = %d, want reported prefix %d", got, n)
	}
	// Exactly batch[:n], in push order (leftmost is the last landed).
	for i := n - 1; i >= 0; i-- {
		v, ok := d.PopLeft(h)
		if !ok || v != batch[i] {
			t.Fatalf("PopLeft = (%d, %v), want (%d, true)", v, ok, batch[i])
		}
	}
	if _, ok := d.PopLeft(h); ok {
		t.Fatal("value beyond the reported prefix")
	}
}

// TestQueueStreamOutlivesRegistry pins ID reuse: a queue-pattern stream
// (push left, pop right) on the smallest nodes crosses a node boundary
// every other value, so a deque that spent a fresh ID per node would
// exhaust the smallest registry (one chunk, 8192 IDs) after about 16k
// values. Removed nodes come back through the pool with their IDs, so the
// stream runs on a handful of them for a million values.
func TestQueueStreamOutlivesRegistry(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2, RegistryLimit: 1})
	h := d.Register()
	const pairs = 1 << 20
	for i := 0; i < pairs; i++ {
		if err := d.PushLeft(h, uint32(i)&0xFFFFFF); err != nil {
			t.Fatalf("push %d: %v (IDs allocated %d of %d)",
				i, err, d.reg.Allocated(), d.reg.Limit())
		}
		if v, ok := d.PopRight(h); !ok || v != uint32(i)&0xFFFFFF {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if ms := d.MemStats(); ms.Recycled == 0 {
		t.Fatal("no node came back through the pool")
	}
	if got, limit := d.reg.Allocated(), d.reg.Limit(); got > limit/16 {
		t.Fatalf("%d node IDs allocated for %d values, want far below the limit %d",
			got, pairs, limit)
	}
}
