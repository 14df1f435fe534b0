package core

import (
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file implements the batch operations PushLeftN/PopLeftN and their
// right-side mirrors; the run extensions are written once, in the left
// side's coordinates (sideCoords, left.go). A batch is linearizable PER
// ELEMENT — it is exactly a sequence of individual pushes (pops) by the same
// thread, with no atomicity claimed across the batch — but the elements
// after the first ride a "run": once the full protocol (oracle walk, edge
// checks, transition dispatch) has located the edge and moved it, each
// subsequent element repeats only the two-CAS interior transition at the
// slot the previous element just determined, skipping the oracle entirely
// and publishing the shared hint once per run instead of once per element.
//
// Safety: every run step performs the paper's interior transition verbatim
// (push L1: bump in, write out; pop L2: bump out, clear in) with full
// validation of both slot copies — in holds a non-reserved datum, out holds
// the side's null. Interference of any kind (a CAS failure or an unexpected
// slot value) breaks the run and the remaining elements fall back to the
// full per-element protocol, so a batch degrades under contention to exactly
// the sequence of individual operations it is equivalent to. A run never
// crosses a node border: border slots need the append/straddle/remove
// machinery, which only the full protocol carries.

// PushLeftN pushes the elements of vals in slice order, each becoming the
// new leftmost, so after the call the deque reads vals[len-1], ..., vals[0],
// <previous contents> from the left. It is equivalent to calling PushLeft
// for each element in order. Returns ErrReserved (pushing nothing) if any
// value is reserved. On registry exhaustion it returns ErrFull; the
// already-pushed prefix stays pushed (per-element linearizability — exactly
// as if the equivalent individual PushLeft calls had failed partway), and
// the returned count reports how many elements landed.
func (d *Deque) PushLeftN(h *Handle, vals []uint32) (int, error) {
	return d.pushN(h, obs.SideLeft, vals)
}

// pushN is PushLeftN/PushRightN on side s. The call takes one tick of the
// handle's latency countdown, like a single op, and a sampled call records
// its whole duration as batch_push. Each run's head goes through the push
// loop as a head (no per-op steps), and the side's run extension continues
// from the slot the head landed on.
func (d *Deque) pushN(h *Handle, s obs.Side, vals []uint32) (int, error) {
	for _, v := range vals {
		if word.IsReserved(v) {
			return 0, ErrReserved
		}
	}
	sampled := d.opStart(h, obs.OpPush, s)
	defer d.batchEnd(sampled, h, obs.LatBatchPush)
	if a := d.elims[s]; a != nil {
		for i, v := range vals {
			if err := d.pushElim(h, s, a, v); err != nil {
				return i, err
			}
		}
		return len(vals), nil
	}
	head := Bound{head: true}
	i := 0
	for i < len(vals) {
		if err := d.Push(h, s, vals[i], &head); err != nil {
			return i, err
		}
		i += d.pushRun(h, s, head.idx, vals[i:])
	}
	return i, nil
}

// pushRun extends a run on side s whose head vals[0] just landed through
// the full protocol at edge index idx: it pushes the following elements
// with interior transitions while the side's edge stays where the previous
// element put it. Returns the number of elements pushed, head included.
func (d *Deque) pushRun(h *Handle, s obs.Side, idx int, vals []uint32) int {
	c := &d.sides[s]
	// The transition left the new outermost datum in h.edge[s]: at idx-1
	// for an interior push, at sz-2 for an append or straddle (both place
	// the datum in the new node's innermost data slot).
	nd := h.edge[s]
	j := d.sz - 2
	if idx != 1 {
		j = idx - 1
	}
	n := 1
	for n < len(vals) && j >= 2 {
		in := c.at(nd, j)
		out := c.at(nd, j-1)
		inCpy := in.Load()
		outCpy := out.Load()
		if word.IsReserved(word.Val(inCpy)) || word.Val(outCpy) != c.null {
			break // edge moved or sealed: back to the full protocol
		}
		if chaos.Visit(chaos.L1) {
			h.rec.Inc(obs.CtrFailL1)
			break // injected lost race: back to the full protocol
		}
		if !in.CompareAndSwap(inCpy, word.Bump(inCpy)) {
			h.rec.Inc(obs.CtrFailL1)
			break
		}
		if !out.CompareAndSwap(outCpy, word.With(outCpy, vals[n])) {
			h.rec.Inc(obs.CtrFailL1)
			break
		}
		h.rec.Inc(obs.CtrL1)
		n++
		j--
	}
	if n > 1 {
		nd.slotHint[s].Store(int64(j))
		h.edge[s] = nd
		h.idx[s] = j
		h.rec.Inc(obs.CtrHintPublish)
		d.hint[s].set(d.hint[s].w.Load(), nd)
	}
	return n
}

// PopLeftN pops up to len(dst) values from the left end into dst in pop
// order (dst[0] was the leftmost). It is equivalent to calling PopLeft
// repeatedly, stopping early when the deque reports EMPTY. Returns the
// number of values popped.
func (d *Deque) PopLeftN(h *Handle, dst []uint32) int { return d.popN(h, obs.SideLeft, dst) }

// popN is PopLeftN/PopRightN on side s, built like pushN.
func (d *Deque) popN(h *Handle, s obs.Side, dst []uint32) int {
	sampled := d.opStart(h, obs.OpPop, s)
	defer d.batchEnd(sampled, h, obs.LatBatchPop)
	if a := d.elims[s]; a != nil {
		for i := range dst {
			v, ok := d.popElim(h, s, a)
			if !ok {
				return i
			}
			dst[i] = v
		}
		return len(dst)
	}
	head := Bound{head: true}
	n := 0
	for n < len(dst) {
		v, ok, _ := d.Pop(h, s, &head)
		if !ok {
			break
		}
		dst[n] = v
		n += d.popRun(h, s, head.idx, dst[n:])
	}
	return n
}

// popRun extends a run on side s whose head dst[0] was just popped through
// the full protocol at edge index idx, with interior transitions walking
// inward. Returns the count popped, head included.
func (d *Deque) popRun(h *Handle, s obs.Side, idx int, dst []uint32) int {
	c := &d.sides[s]
	// The popped datum sat at logical index idx; the next-outermost, if
	// any, sits one slot inward in the same node.
	nd := h.edge[s]
	j := idx + 1
	n := 1
	for n < len(dst) && j <= d.sz-2 {
		in := c.at(nd, j)
		out := c.at(nd, j-1)
		inCpy := in.Load()
		outCpy := out.Load()
		inVal := word.Val(inCpy)
		if word.IsReserved(inVal) || word.Val(outCpy) != c.null {
			break // empty span, straddle, or interference: full protocol decides
		}
		if chaos.Visit(chaos.L2) {
			h.rec.Inc(obs.CtrFailL2)
			break // injected lost race: back to the full protocol
		}
		if !out.CompareAndSwap(outCpy, word.Bump(outCpy)) {
			h.rec.Inc(obs.CtrFailL2)
			break
		}
		if !in.CompareAndSwap(inCpy, word.With(inCpy, c.null)) {
			h.rec.Inc(obs.CtrFailL2)
			break
		}
		h.rec.Inc(obs.CtrL2)
		dst[n] = inVal
		n++
		j++
	}
	if n > 1 {
		nd.slotHint[s].Store(int64(j))
		h.edge[s] = nd
		h.idx[s] = j
		if j == d.sz-1 {
			h.edge[s] = nil // drained node: border slot holds a link
		}
		h.rec.Inc(obs.CtrHintPublish)
		d.hint[s].set(d.hint[s].w.Load(), nd)
	}
	return n
}

// PushRightN mirrors PushLeftN: elements are pushed in slice order, each
// becoming the new rightmost, equivalent to calling PushRight per element.
// On ErrFull the already-pushed prefix stays pushed, and the returned count
// reports how many elements landed (see PushLeftN).
func (d *Deque) PushRightN(h *Handle, vals []uint32) (int, error) {
	return d.pushN(h, obs.SideRight, vals)
}

// PopRightN mirrors PopLeftN for the right end.
func (d *Deque) PopRightN(h *Handle, dst []uint32) int { return d.popN(h, obs.SideRight, dst) }
