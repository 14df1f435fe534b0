package deque

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Public-API coverage for node reclamation: WithMemoryLimit validation,
// recycling through Deque[T], and the WithMemoryLimit -> ErrFull contract.

func TestReclaimOptionsRejected(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"memory limit zero", []Option{WithMemoryLimit(0)}},
		{"memory limit negative", []Option{WithMemoryLimit(-1)}},
		{"memory limit below two nodes", []Option{
			WithNodeSize(64), WithMemoryLimit(core.NodeFootprint(64))}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewChecked[int](tc.opts...); !errors.Is(err, ErrBadOption) {
				t.Fatalf("NewChecked err = %v, want ErrBadOption", err)
			}
		})
	}
}

func TestRecyclingThroughGenericAPI(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		d := New[int](WithNodeSize(4))
		h := d.Register()
		for i := 0; i < 2000; i++ {
			if err := h.PushLeft(i); err != nil {
				t.Fatalf("push %d: %v", i, err)
			}
			if v, ok := h.PopRight(); !ok || v != i {
				t.Fatalf("pop %d = (%d, %v)", i, v, ok)
			}
		}
		h.Flush() // drains pending retires through the hazard domain
		m := d.Metrics()
		if m.NodesRetired == 0 || m.NodesRecycled == 0 {
			t.Fatalf("retired=%d recycled=%d: node recycling not engaged",
				m.NodesRetired, m.NodesRecycled)
		}
		if m.MemNodesHighWater == 0 || m.MemNodesHighWater > 128 {
			t.Fatalf("node high-water %d: want small bounded footprint",
				m.MemNodesHighWater)
		}
	})
}

func TestMemoryLimitErrFullAndRecovery(t *testing.T) {
	// Budget exactly 6 nodes at node size 4.
	const nodes = 6
	d := NewUint32(WithNodeSize(4), WithMemoryLimit(nodes*core.NodeFootprint(4)))
	h := d.Register()
	if m := d.Metrics(); m.MemLimitNodes != nodes {
		t.Fatalf("MemLimitNodes = %d, want %d", m.MemLimitNodes, nodes)
	}
	var pushed int
	for i := 0; i < 10*nodes; i++ {
		err := h.PushLeft(uint32(i))
		if errors.Is(err, ErrFull) {
			break
		}
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		pushed++
	}
	if pushed == 10*nodes {
		t.Fatalf("bound of %d nodes never tripped after %d pushes", nodes, pushed)
	}
	if m := d.Metrics(); m.MemNodesHighWater > nodes {
		t.Fatalf("high-water %d exceeds bound %d", m.MemNodesHighWater, nodes)
	}
	// Pops make room again; the deque stays fully usable.
	for i := 0; i < pushed; i++ {
		if _, ok := h.PopRight(); !ok {
			t.Fatalf("pop %d of %d failed", i, pushed)
		}
	}
	h.Flush()
	if err := h.PushLeft(7); err != nil {
		t.Fatalf("push after drain: %v", err)
	}
	if v, ok := h.PopLeft(); !ok || v != 7 {
		t.Fatalf("PopLeft = (%d, %v) after recovery", v, ok)
	}
}

// TestRecyclingSteadyStateAllocs is the node-recycling allocation gate: the
// mixed 4-way single-handle workload on 16-slot nodes crosses a node
// boundary every few operations, and the deque must serve that churn from
// its node pool (default size) instead of the heap. The 0.018 allocs/op
// ceiling is about half of what the same workload measured when removed
// nodes were left to the garbage collector (~0.037), so the test fails if
// recycling stops working.
func TestRecyclingSteadyStateAllocs(t *testing.T) {
	const (
		opsPerRun = 1 << 16
		ceiling   = 0.018
	)
	t.Run("hazard", func(t *testing.T) {
		d := New[uint32](WithNodeSize(16))
		h := d.Register()
		rng := xrand.NewXoshiro256(1)
		benchMixed4Way(h, rng, 4*opsPerRun) // warm-up: fill the pool
		perOp := testing.AllocsPerRun(8, func() { benchMixed4Way(h, rng, opsPerRun) }) / opsPerRun
		t.Logf("hazard: %.5f allocs/op", perOp)
		if perOp > ceiling {
			t.Fatalf("hazard: %.5f allocs/op, want <= %.3f", perOp, ceiling)
		}
	})
}
