package core

import (
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file implements the left side's transitions: push_left (Fig. 6) and
// pop_left (Fig. 12), one attempt each against the oracle's edge. The retry
// loops that drive them are shared with the right side (ops.go). right.go
// mirrors every function.

// spareLeft returns a node shaped for a left append — every slot LN, the
// new datum in the innermost data slot, the right link aimed back at edge
// (Fig. 6 lines 102-104) — reusing the handle's cached left spare when an
// earlier append lost its race. Every write advances the slot's counter in
// place (storeKeepCt): a fresh node's counters simply step off 0, while a
// recycled node's counters must never regress below its previous life's
// values or CASes armed back then could succeed now (reclaim.go invariant
// I1). ok=false means allocation failed; h.allocErr holds ErrFull.
func (h *Handle) spareLeft(v uint32, edge *node) (*node, bool) {
	d := h.d
	n := h.spareL
	if n == nil {
		nn, fromPool, err := d.newNodeTry(d.sz) // all LN
		if err != nil {
			h.allocErr = err
			return nil, false
		}
		n = nn
		h.spareL = n
		h.spareLInstall = fromPool
	}
	storeKeepCt(&n.slots[d.sz-2], v)
	storeKeepCt(&n.slots[d.sz-1], edge.id)
	n.leftSlotHint.Store(int64(d.sz - 2))
	n.rightSlotHint.Store(int64(d.sz - 2))
	return n, true
}

// pushLeftTransitions runs one push attempt against the edge the oracle
// found: snapshot, validate, and apply the transition the edge type calls
// for. It reports completion; false means "state moved under us (or we only
// helped remove a sealed node), retry from the oracle".
func (d *Deque) pushLeftTransitions(h *Handle, v uint32, edge *node, idx int, hintW uint64) bool {
	sz := d.sz
	in := &edge.slots[idx]
	inCpy := in.Load()
	inVal := word.Val(inCpy)
	out := &edge.slots[idx-1]
	outCpy := out.Load()
	outVal := word.Val(outCpy)

	// Check the oracle's edge (lines 84-87). The published check rejects
	// in == RS, but the paper's own straddling empty check (line 193)
	// tests in == RS and would be unreachable under that reading — and a
	// right-sealed edge node whose remover has stalled would then block
	// the left side forever, contradicting Theorem 2. We therefore reject
	// the SAME-side seal (LS: this node was already removed from the
	// left) and let RS flow into the straddling branch, where the empty
	// check and the straddle push handle it. See DESIGN.md §3.
	if inVal == word.LN || inVal == word.LS ||
		(idx != 1 && outVal != word.LN) ||
		(idx == sz-1 && inVal != word.RN) {
		return false
	}

	// Interior push, transition L1 (lines 90-95). A forced chaos failure
	// counts as a lost CAS: it models exactly that race, so the Fail
	// counters stay exact under chaos schedules (tests rely on this).
	if idx != 1 {
		if chaos.Visit(chaos.L1) {
			h.rec.Inc(obs.CtrFailL1)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			out.CompareAndSwap(outCpy, word.With(outCpy, v)) {
			h.rec.Inc(obs.CtrL1)
			h.edgeL = edge
			h.idxL = idx - 1
			h.publishLeft(hintW, edge, idx-1)
			return true
		}
		h.rec.Inc(obs.CtrFailL1)
		return false
	}

	// Boundary edge: append a new node, transition L6 (lines 100-108).
	if outVal == word.LN {
		if inVal == word.RS {
			// A right-sealed node with no left neighbor is off the chain;
			// stale view.
			return false
		}
		nw, ok := h.spareLeft(v, edge)
		if !ok {
			return false
		}
		if chaos.Visit(chaos.L6) {
			h.rec.Inc(obs.CtrFailL6)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			out.CompareAndSwap(outCpy, word.With(outCpy, nw.id)) {
			h.rec.Inc(obs.CtrL6)
			// A recycled spare rejoins the registry only now, after the
			// link made it reachable (invariant I2): installing earlier
			// would let a stale edge cache validate the half-prepared node.
			//
			// Between the link CAS above and the Reinstall inside
			// installSpare, other threads resolve nw.id to nil and take the
			// escape/restart path — wasted oracle restarts, but bounded by
			// these two instructions on the appender, and the global hint
			// still points at the old edge until the set below. If the
			// appender is preempted exactly here, other threads spin on
			// restarts until it resumes: progress can hinge on one thread,
			// which is within this algorithm's obstruction-freedom contract
			// (the paper's guarantee — it was never lock-free), and the
			// livelock watchdog's backoff keeps the spin cheap.
			h.installSpare(nw, &h.spareLInstall)
			h.spareL = nil
			h.Appends++
			h.edgeL = nw
			h.idxL = sz - 2
			h.rec.Inc(obs.CtrHintPublish)
			d.left.set(hintW, nw)
			return true
		}
		h.rec.Inc(obs.CtrFailL6)
		return false // nw stays cached for the retry
	}

	// Straddling edge (lines 112-138): outVal is the left neighbor's ID.
	// guardNeighbor advertises the neighbor in the handle's second hazard
	// slot (the edge itself sits in the first) and re-validates it, so its
	// slots cannot be recycled under the reads below.
	outNd := d.resolve(outVal)
	if outNd == nil || !d.guardNeighbor(h, outNd) {
		return false
	}
	far := &outNd.slots[sz-2]
	farCpy := far.Load()
	// Ensure the left neighbor points back (lines 118-120).
	if word.Val(outNd.slots[sz-1].Load()) != edge.id {
		return false
	}
	switch word.Val(farCpy) {
	case word.LN:
		// Straddling push, transition L3 (lines 123-127).
		if chaos.Visit(chaos.L3) {
			h.rec.Inc(obs.CtrFailL3)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			far.CompareAndSwap(farCpy, word.With(farCpy, v)) {
			h.rec.Inc(obs.CtrL3)
			outNd.leftSlotHint.Store(int64(sz - 2))
			h.edgeL = outNd
			h.idxL = sz - 2
			h.rec.Inc(obs.CtrHintPublish)
			d.left.set(hintW, outNd)
			return true
		}
		h.rec.Inc(obs.CtrFailL3)
	case word.LS:
		// Remove the sealed left neighbor, transition L7 (lines 130-136),
		// then retry the push from scratch.
		if chaos.Visit(chaos.L7) {
			h.rec.Inc(obs.CtrFailL7)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			out.CompareAndSwap(outCpy, word.With(outCpy, word.LN)) {
			h.rec.Inc(obs.CtrL7)
			h.Removes++
			edge.leftSlotHint.Store(1)
			h.edgeL = edge
			h.idxL = 1
			h.rec.Inc(obs.CtrHintPublish)
			d.left.set(hintW, edge)
			d.unregisterLeft(h, outNd, edge) // retire the removed chain
			d.refreshRightHint(h)
		} else {
			h.rec.Inc(obs.CtrFailL7)
		}
	}
	return false
}

// popLeftTransitions runs one pop attempt against the oracle's edge.
// done=false means retry; otherwise empty reports EMPTY and v holds the
// popped value.
func (d *Deque) popLeftTransitions(h *Handle, edge *node, idx int, hintW uint64) (v uint32, empty, done bool) {
	sz := d.sz
	in := &edge.slots[idx]
	inCpy := in.Load()
	inVal := word.Val(inCpy)
	out := &edge.slots[idx-1]
	outCpy := out.Load()
	outVal := word.Val(outCpy)

	// Check the oracle's edge (lines 158-161; RS is allowed through to
	// the straddling branch for the same reason as in the push — the
	// paper's E2 check at line 193 expects to see it).
	if inVal == word.LN || inVal == word.LS ||
		(idx != 1 && outVal != word.LN) ||
		(idx == sz-1 && inVal != word.RN) {
		return 0, false, false
	}

	// Interior edge: empty check E1 or interior pop L2 (lines 165-174).
	if idx != 1 {
		if inVal == word.RN {
			// E1: out was LN (validated above) and in re-reads unchanged;
			// the adjacent (LN, RN) pair proves the span was empty when
			// out was read — that read is EMPTY's linearization point.
			// A forced chaos failure models the re-read observing change.
			if chaos.Visit(chaos.E1) {
				return 0, false, false
			}
			if in.Load() == inCpy {
				h.rec.Inc(obs.CtrE1)
				h.edgeL = edge
				h.idxL = idx
				return 0, true, true
			}
			return 0, false, false
		}
		if chaos.Visit(chaos.L2) {
			h.rec.Inc(obs.CtrFailL2)
			return 0, false, false
		}
		if out.CompareAndSwap(outCpy, word.Bump(outCpy)) &&
			in.CompareAndSwap(inCpy, word.With(inCpy, word.LN)) {
			h.rec.Inc(obs.CtrL2)
			h.edgeL = edge
			h.idxL = idx + 1
			if idx+1 == sz-1 {
				// The node is drained: its border slot holds a link, not a
				// datum, so a cached attempt there can never validate. Let
				// the next operation take the real oracle.
				h.edgeL = nil
			}
			h.publishLeft(hintW, edge, idx+1)
			return inVal, false, true
		}
		h.rec.Inc(obs.CtrFailL2)
		return 0, false, false
	}

	// Straddling edge: follow the straddling pop progression — seal L5,
	// remove L7, then fall through to the boundary pop (lines 179-218).
	if outVal != word.LN {
		outNd := d.resolve(outVal)
		if outNd == nil || !d.guardNeighbor(h, outNd) {
			return 0, false, false
		}
		far := &outNd.slots[sz-2]
		farCpy := far.Load()
		if word.Val(outNd.slots[sz-1].Load()) != edge.id {
			return 0, false, false
		}

		if word.Val(farCpy) == word.LN {
			// Straddling empty check E2 (lines 193-196). A forced failure
			// must retry from the oracle, not fall through: the natural
			// fall-through is only safe because a changed in-slot makes the
			// seal CAS below fail, and with in unchanged a fall-through seal
			// under in == RS would create two sealed nodes pointing at each
			// other — the exact state this check exists to prevent.
			if inVal == word.RN || inVal == word.RS {
				if chaos.Visit(chaos.E2) {
					return 0, false, false
				}
				if in.Load() == inCpy {
					h.rec.Inc(obs.CtrE2)
					h.edgeL = edge
					h.idxL = idx
					return 0, true, true
				}
			}
			// Seal the left neighbor, transition L5 (lines 197-201); on
			// success, continue the progression with refreshed copies.
			if chaos.Visit(chaos.L5) {
				h.rec.Inc(obs.CtrFailL5)
			} else if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
				far.CompareAndSwap(farCpy, word.With(farCpy, word.LS)) {
				h.rec.Inc(obs.CtrL5)
				farCpy = word.With(farCpy, word.LS)
				inCpy = word.Bump(inCpy)
			} else {
				h.rec.Inc(obs.CtrFailL5)
			}
		}

		if word.Val(farCpy) == word.LS {
			// Straddling empty check on a sealed neighbor (lines 204-207).
			// in == RS also certifies emptiness: both neighbors sealed
			// means both sides have certified the span empty, and the
			// check returning EMPTY here is what prevents two sealed
			// nodes from ever pointing at each other.
			iv := word.Val(inCpy)
			if iv == word.RN || iv == word.RS {
				if chaos.Visit(chaos.E2) {
					return 0, false, false
				}
				if in.Load() == inCpy {
					h.rec.Inc(obs.CtrE2)
					h.edgeL = edge
					h.idxL = idx
					return 0, true, true
				}
			}
			// Remove the sealed neighbor, transition L7 (lines 208-216).
			if chaos.Visit(chaos.L7) {
				h.rec.Inc(obs.CtrFailL7)
				return 0, false, false
			}
			if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
				out.CompareAndSwap(outCpy, word.With(outCpy, word.LN)) {
				h.rec.Inc(obs.CtrL7)
				h.Removes++
				edge.leftSlotHint.Store(1)
				h.edgeL = edge
				h.idxL = 1
				h.rec.Inc(obs.CtrHintPublish)
				hintW = d.left.set(hintW, edge)
				d.unregisterLeft(h, outNd, edge)
				d.refreshRightHint(h)
				inCpy = word.Bump(inCpy)
				outCpy = word.With(outCpy, word.LN)
				outVal = word.LN
			} else {
				h.rec.Inc(obs.CtrFailL7)
			}
		}
	}

	// Boundary edge: empty check E3 or boundary pop L4 (lines 220-229).
	if outVal == word.LN {
		inVal = word.Val(inCpy)
		if inVal == word.RN || inVal == word.RS {
			// RS at a boundary means the right side certified the deque
			// empty and is mid-removal; EMPTY is correct if stable.
			if chaos.Visit(chaos.E3) {
				return 0, false, false
			}
			if in.Load() == inCpy {
				h.rec.Inc(obs.CtrE3)
				h.edgeL = edge
				h.idxL = idx
				return 0, true, true
			}
			return 0, false, false
		}
		if word.IsReserved(inVal) {
			return 0, false, false // seals are never popped
		}
		if chaos.Visit(chaos.L4) {
			h.rec.Inc(obs.CtrFailL4)
			return 0, false, false
		}
		if out.CompareAndSwap(outCpy, word.Bump(outCpy)) &&
			in.CompareAndSwap(inCpy, word.With(inCpy, word.LN)) {
			h.rec.Inc(obs.CtrL4)
			h.edgeL = edge
			h.idxL = 2
			h.publishLeft(hintW, edge, 2)
			return inVal, false, true
		}
		h.rec.Inc(obs.CtrFailL4)
	}
	return 0, false, false
}

// refreshRightHint runs the right oracle and installs its answer — the
// paper's hint_r(oracle_r(right_node_hint)) from the remove transitions
// (lines 135/212): after a removal, both global hints must be moved off the
// retired node so future threads cannot trace to it.
func (d *Deque) refreshRightHint(h *Handle) {
	nd, idx, hw := d.rOracle(h, h.rec)
	h.rec.Inc(obs.CtrHintPublish)
	nd.rightSlotHint.Store(int64(idx))
	d.right.set(hw, nd)
}

// refreshLeftHint mirrors refreshRightHint for removals on the right side.
func (d *Deque) refreshLeftHint(h *Handle) {
	nd, idx, hw := d.lOracle(h, h.rec)
	h.rec.Inc(obs.CtrHintPublish)
	nd.leftSlotHint.Store(int64(idx))
	d.left.set(hw, nd)
}
