package core

import (
	"repro/internal/elim"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file holds the operation scaffolding both sides share. The paper's
// push_left (Fig. 6) and pop_left (Fig. 12) are each one loop — oracle,
// transition, retry — and push_right/pop_right are their "symmetric code".
// Here each loop is written once and takes the side as a parameter, which
// it hands to the one oracle and the one set of transitions (left.go,
// written in the left side's coordinates as the paper states them).
//
//   - Push/Pop are the retry loops. Each holds, once, the steps every op
//     shares: the reserved check, the sampled latency countdown, the
//     abort checks, the attempt (the seeded oracle, the side's
//     transitions and the edge-cache bookkeeping), allocation failure and
//     the livelock watchdog. The plain ops pass a nil *Bound; the Ctx and
//     Try ops pass their limits; a batch run's head (batch.go) passes a
//     head Bound, which skips the per-op steps a batch does once for
//     itself.
//   - pushElim/popElim are the Fig. 13 elimination-wrapped loops, taken by
//     the plain ops on an elimination deque.
//
// The attempt is written inside each loop rather than as a function the
// loop calls: this is every operation's hot path, and that call level alone
// cost ~7% cpu-ns/op on a single-handle mixed workload (co-scheduled races
// pinned to one CPU of a 2-vCPU x86-64 host, six linker layout seeds).

// PushLeft inserts v at the left end. Errors: ErrReserved for the four
// reserved slot values, ErrFull when growing the chain is impossible
// because the node registry is exhausted.
func (d *Deque) PushLeft(h *Handle, v uint32) error { return d.Push(h, obs.SideLeft, v, nil) }

// PushRight mirrors PushLeft.
func (d *Deque) PushRight(h *Handle, v uint32) error { return d.Push(h, obs.SideRight, v, nil) }

// PopLeft removes and returns the leftmost value; ok is false when the
// deque was empty (the paper's EMPTY).
func (d *Deque) PopLeft(h *Handle) (v uint32, ok bool) {
	v, ok, _ = d.Pop(h, obs.SideLeft, nil)
	return v, ok
}

// PopRight mirrors PopLeft.
func (d *Deque) PopRight(h *Handle) (v uint32, ok bool) {
	v, ok, _ = d.Pop(h, obs.SideRight, nil)
	return v, ok
}

// Push is the one push loop behind every single-value push entry point, on
// side s: b == nil is the plain op, and PushBounded passes the *Ctx and
// Try* limits (see cancel.go). Only the plain op takes the elimination
// path.
func (d *Deque) Push(h *Handle, s obs.Side, v uint32, b *Bound) error {
	if word.IsReserved(v) {
		return ErrReserved
	}
	var sampled bool
	if !b.isHead() {
		sampled = d.opStart(h, obs.OpPush, s)
		if b == nil && d.elims[s] != nil {
			err := d.pushElim(h, s, d.elims[s], v)
			d.opEnd(sampled, h, obs.OpPush, s)
			return err
		}
	}
	for {
		if b != nil {
			if err := b.check(); err != nil {
				d.opEnd(sampled, h, obs.OpPush, s)
				return err
			}
		}
		edge, idx, hintW, cached := d.oracleSeeded(h, s)
		if d.pushTransitions(h, s, v, edge, idx, hintW) {
			if cached {
				h.EdgeCacheHits++
			}
			h.noteSuccess()
			if b != nil {
				b.idx = idx
			}
			d.opEnd(sampled, h, obs.OpPush, s)
			return nil
		}
		// An allocation failure leaves the cache set: the cached edge was
		// right, the chain just cannot grow.
		if err := h.takeAllocErr(); err != nil {
			d.opEnd(sampled, h, obs.OpPush, s)
			return err
		}
		if cached {
			h.edge[s] = nil // stale: the next attempt runs the real oracle
		}
		h.noteFailure()
	}
}

// Pop is the one pop loop, Push's counterpart; ok is false when the deque
// was empty and is meaningful only when err is nil.
func (d *Deque) Pop(h *Handle, s obs.Side, b *Bound) (v uint32, ok bool, err error) {
	var sampled bool
	if !b.isHead() {
		sampled = d.opStart(h, obs.OpPop, s)
		if b == nil && d.elims[s] != nil {
			v, ok = d.popElim(h, s, d.elims[s])
			d.opEnd(sampled, h, obs.OpPop, s)
			return v, ok, nil
		}
	}
	for {
		if b != nil {
			if err := b.check(); err != nil {
				d.opEnd(sampled, h, obs.OpPop, s)
				return 0, false, err
			}
		}
		edge, idx, hintW, cached := d.oracleSeeded(h, s)
		var empty, fin bool
		v, empty, fin = d.popTransitions(h, s, edge, idx, hintW)
		if fin {
			if cached {
				h.EdgeCacheHits++
			}
			h.noteSuccess()
			if b != nil {
				b.idx = idx
			}
			d.opEnd(sampled, h, obs.OpPop, s)
			return v, !empty, nil
		}
		if cached {
			h.edge[s] = nil
		}
		h.noteFailure()
	}
}

// pushElim is a push wrapped in the Fig. 13 elimination protocol:
// advertise, oracle, withdraw (possibly already matched), try the deque,
// scan on failure, re-advertise. Registry exhaustion surfaces as ErrFull;
// the advert is always withdrawn by the loop-top Remove before the error
// path can be taken, so no orphaned advert survives the return.
func (d *Deque) pushElim(h *Handle, s obs.Side, a *elim.Array, v uint32) error {
	if d.cfg.ElimPlacement == ElimOnCriticalPath {
		if _, ok := d.elimFirst(h, a, elim.Push, v); ok {
			return nil
		}
	}
	a.Insert(h.tid, elim.Push, v)
	for {
		edge, idx, hintW := d.oracle(h, s, h.rec)
		if _, eliminated := a.Remove(h.tid); eliminated {
			h.noteElim(elim.Push)
			h.noteSuccess()
			return nil
		}
		if d.pushTransitions(h, s, v, edge, idx, hintW) {
			h.noteSuccess()
			return nil
		}
		if err := h.takeAllocErr(); err != nil {
			return err
		}
		// Contention on the deque: hunt for a partner (lines 269-273).
		if _, ok := a.Scan(h.tid, elim.Push, v); ok {
			h.noteElim(elim.Push)
			h.noteSuccess()
			return nil
		}
		h.rec.Inc(obs.CtrElimMiss)
		a.Insert(h.tid, elim.Push, v)
		h.noteFailure()
	}
}

// popElim is a pop wrapped in the Fig. 13 elimination protocol.
func (d *Deque) popElim(h *Handle, s obs.Side, a *elim.Array) (uint32, bool) {
	if d.cfg.ElimPlacement == ElimOnCriticalPath {
		if v, ok := d.elimFirst(h, a, elim.Pop, 0); ok {
			return v, true
		}
	}
	a.Insert(h.tid, elim.Pop, 0)
	for {
		edge, idx, hintW := d.oracle(h, s, h.rec)
		if v, eliminated := a.Remove(h.tid); eliminated {
			h.noteElim(elim.Pop)
			h.noteSuccess()
			return v, true
		}
		if v, empty, done := d.popTransitions(h, s, edge, idx, hintW); done {
			h.noteSuccess()
			return v, !empty
		}
		if v, ok := a.Scan(h.tid, elim.Pop, 0); ok {
			h.noteElim(elim.Pop)
			h.noteSuccess()
			return v, true
		}
		h.rec.Inc(obs.CtrElimMiss)
		a.Insert(h.tid, elim.Pop, 0)
		h.noteFailure()
	}
}

// elimFirst implements the naive on-critical-path placement for the A4
// ablation: linger in the array hoping for a partner before touching the
// deque. Reports whether the operation was eliminated; a pop's value comes
// back in v.
func (d *Deque) elimFirst(h *Handle, a *elim.Array, op elim.Op, v uint32) (uint32, bool) {
	a.Insert(h.tid, op, v)
	spin(d.cfg.ElimSpins)
	got, ok := a.Remove(h.tid)
	if !ok {
		got, ok = a.Scan(h.tid, op, v)
	}
	if !ok {
		h.rec.Inc(obs.CtrElimMiss)
		return 0, false
	}
	h.noteElim(op)
	return got, true
}

// noteElim counts an operation completed by elimination.
func (h *Handle) noteElim(op elim.Op) {
	if op == elim.Push {
		h.rec.Inc(obs.CtrElimPush)
	} else {
		h.rec.Inc(obs.CtrElimPop)
	}
	h.Eliminated++
}

// spin burns roughly n cycles without entering the scheduler.
//
//go:noinline
func spin(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}
