package core

import (
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file mirrors left.go for the right side ("symmetric code" — Figs. 6
// and 12 captions). The mirror swaps LN↔RN and LS↔RS, reflects indices
// (1 ↔ sz-2, 0 ↔ sz-1, idx-1 ↔ idx+1), and swaps the hint sides.

// spareRight returns a node shaped for a right append — every slot RN, the
// new datum in the innermost data slot, the left link aimed back at edge.
// Writes preserve slot counters, as in spareLeft (invariant I1).
// ok=false means allocation failed; h.allocErr holds ErrFull.
func (h *Handle) spareRight(v uint32, edge *node) (*node, bool) {
	d := h.d
	n := h.spareR
	if n == nil {
		nn, fromPool, err := d.newNodeTry(0) // all RN
		if err != nil {
			h.allocErr = err
			return nil, false
		}
		n = nn
		h.spareR = n
		h.spareRInstall = fromPool
	}
	storeKeepCt(&n.slots[1], v)
	storeKeepCt(&n.slots[0], edge.id)
	n.leftSlotHint.Store(1)
	n.rightSlotHint.Store(1)
	return n, true
}

// pushRightTransitions runs one push attempt against the oracle's edge.
func (d *Deque) pushRightTransitions(h *Handle, v uint32, edge *node, idx int, hintW uint64) bool {
	sz := d.sz
	in := &edge.slots[idx]
	inCpy := in.Load()
	inVal := word.Val(inCpy)
	out := &edge.slots[idx+1]
	outCpy := out.Load()
	outVal := word.Val(outCpy)

	// Check the oracle's edge: reject the same-side seal (RS) and let LS
	// flow into the straddling branch (see left.go for why this deviates
	// from the published check).
	if inVal == word.RN || inVal == word.RS ||
		(idx != sz-2 && outVal != word.RN) ||
		(idx == 0 && inVal != word.LN) {
		return false
	}

	// Interior push, transition L1. Chaos failures count as lost CASes,
	// exactly as in left.go.
	if idx != sz-2 {
		if chaos.Visit(chaos.L1) {
			h.rec.Inc(obs.CtrFailL1)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			out.CompareAndSwap(outCpy, word.With(outCpy, v)) {
			h.rec.Inc(obs.CtrL1)
			h.edgeR = edge
			h.idxR = idx + 1
			h.publishRight(hintW, edge, idx+1)
			return true
		}
		h.rec.Inc(obs.CtrFailL1)
		return false
	}

	// Boundary edge: append a new node, transition L6.
	if outVal == word.RN {
		if inVal == word.LS {
			return false // stale: a left-sealed node with no right neighbor
		}
		nw, ok := h.spareRight(v, edge)
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
			// Deferred install of a recycled spare; see left.go.
			h.installSpare(nw, &h.spareRInstall)
			h.spareR = nil
			h.Appends++
			h.edgeR = nw
			h.idxR = 1
			h.rec.Inc(obs.CtrHintPublish)
			d.right.set(hintW, nw)
			return true
		}
		h.rec.Inc(obs.CtrFailL6)
		return false
	}

	// Straddling edge: outVal is the right neighbor's ID. guardNeighbor
	// advertises the neighbor in the handle's second hazard slot before we
	// touch its far slot (reclaim.go, "Reader participation").
	outNd := d.resolve(outVal)
	if outNd == nil || !d.guardNeighbor(h, outNd) {
		return false
	}
	far := &outNd.slots[1]
	farCpy := far.Load()
	// Ensure the right neighbor points back.
	if word.Val(outNd.slots[0].Load()) != edge.id {
		return false
	}
	switch word.Val(farCpy) {
	case word.RN:
		// Straddling push, transition L3.
		if chaos.Visit(chaos.L3) {
			h.rec.Inc(obs.CtrFailL3)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			far.CompareAndSwap(farCpy, word.With(farCpy, v)) {
			h.rec.Inc(obs.CtrL3)
			outNd.rightSlotHint.Store(1)
			h.edgeR = outNd
			h.idxR = 1
			h.rec.Inc(obs.CtrHintPublish)
			d.right.set(hintW, outNd)
			return true
		}
		h.rec.Inc(obs.CtrFailL3)
	case word.RS:
		// Remove the sealed right neighbor, transition L7.
		if chaos.Visit(chaos.L7) {
			h.rec.Inc(obs.CtrFailL7)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			out.CompareAndSwap(outCpy, word.With(outCpy, word.RN)) {
			h.rec.Inc(obs.CtrL7)
			h.Removes++
			edge.rightSlotHint.Store(int64(sz - 2))
			h.edgeR = edge
			h.idxR = sz - 2
			h.rec.Inc(obs.CtrHintPublish)
			d.right.set(hintW, edge)
			d.unregisterRight(h, outNd, edge)
			d.refreshLeftHint(h)
		} else {
			h.rec.Inc(obs.CtrFailL7)
		}
	}
	return false
}

// popRightTransitions runs one pop attempt against the oracle's edge.
func (d *Deque) popRightTransitions(h *Handle, edge *node, idx int, hintW uint64) (v uint32, empty, done bool) {
	sz := d.sz
	in := &edge.slots[idx]
	inCpy := in.Load()
	inVal := word.Val(inCpy)
	out := &edge.slots[idx+1]
	outCpy := out.Load()
	outVal := word.Val(outCpy)

	// Check the oracle's edge (LS allowed through; see left.go).
	if inVal == word.RN || inVal == word.RS ||
		(idx != sz-2 && outVal != word.RN) ||
		(idx == 0 && inVal != word.LN) {
		return 0, false, false
	}

	// Interior edge: empty check E1 or interior pop L2.
	if idx != sz-2 {
		if inVal == word.LN {
			if chaos.Visit(chaos.E1) {
				return 0, false, false
			}
			if in.Load() == inCpy {
				h.rec.Inc(obs.CtrE1)
				h.edgeR = edge
				h.idxR = idx
				return 0, true, true
			}
			return 0, false, false
		}
		if chaos.Visit(chaos.L2) {
			h.rec.Inc(obs.CtrFailL2)
			return 0, false, false
		}
		if out.CompareAndSwap(outCpy, word.Bump(outCpy)) &&
			in.CompareAndSwap(inCpy, word.With(inCpy, word.RN)) {
			h.rec.Inc(obs.CtrL2)
			h.edgeR = edge
			h.idxR = idx - 1
			if idx-1 == 0 {
				// Drained node: the border slot holds a link (see left.go).
				h.edgeR = nil
			}
			h.publishRight(hintW, edge, idx-1)
			return inVal, false, true
		}
		h.rec.Inc(obs.CtrFailL2)
		return 0, false, false
	}

	// Straddling edge: seal L5, remove L7, then boundary pop. guardNeighbor
	// advertises the neighbor before its slots are read (reclaim.go).
	if outVal != word.RN {
		outNd := d.resolve(outVal)
		if outNd == nil || !d.guardNeighbor(h, outNd) {
			return 0, false, false
		}
		far := &outNd.slots[1]
		farCpy := far.Load()
		if word.Val(outNd.slots[0].Load()) != edge.id {
			return 0, false, false
		}

		if word.Val(farCpy) == word.RN {
			// Straddling empty check E2. A forced failure must retry from the
			// oracle, not fall through: the natural fall-through is only safe
			// because a changed in-slot makes the seal CAS below fail, and
			// with in unchanged a fall-through seal under in == LS would
			// create two sealed nodes pointing at each other — the exact
			// state this check exists to prevent.
			if inVal == word.LN || inVal == word.LS {
				if chaos.Visit(chaos.E2) {
					return 0, false, false
				}
				if in.Load() == inCpy {
					h.rec.Inc(obs.CtrE2)
					h.edgeR = edge
					h.idxR = idx
					return 0, true, true
				}
			}
			// Seal the right neighbor, transition L5.
			if chaos.Visit(chaos.L5) {
				h.rec.Inc(obs.CtrFailL5)
			} else if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
				far.CompareAndSwap(farCpy, word.With(farCpy, word.RS)) {
				h.rec.Inc(obs.CtrL5)
				farCpy = word.With(farCpy, word.RS)
				inCpy = word.Bump(inCpy)
			} else {
				h.rec.Inc(obs.CtrFailL5)
			}
		}

		if word.Val(farCpy) == word.RS {
			// Straddling empty check on a sealed neighbor (LS also
			// certifies emptiness; see left.go). Same forced-failure rule as
			// above: retry, never fall through with in unchanged.
			iv := word.Val(inCpy)
			if iv == word.LN || iv == word.LS {
				if chaos.Visit(chaos.E2) {
					return 0, false, false
				}
				if in.Load() == inCpy {
					h.rec.Inc(obs.CtrE2)
					h.edgeR = edge
					h.idxR = idx
					return 0, true, true
				}
			}
			// Remove the sealed neighbor, transition L7.
			if chaos.Visit(chaos.L7) {
				h.rec.Inc(obs.CtrFailL7)
				return 0, false, false
			}
			if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
				out.CompareAndSwap(outCpy, word.With(outCpy, word.RN)) {
				h.rec.Inc(obs.CtrL7)
				h.Removes++
				edge.rightSlotHint.Store(int64(sz - 2))
				h.edgeR = edge
				h.idxR = sz - 2
				h.rec.Inc(obs.CtrHintPublish)
				hintW = d.right.set(hintW, edge)
				d.unregisterRight(h, outNd, edge)
				d.refreshLeftHint(h)
				inCpy = word.Bump(inCpy)
				outCpy = word.With(outCpy, word.RN)
				outVal = word.RN
			} else {
				h.rec.Inc(obs.CtrFailL7)
			}
		}
	}

	// Boundary edge: empty check E3 or boundary pop L4.
	if outVal == word.RN {
		inVal = word.Val(inCpy)
		if inVal == word.LN || inVal == word.LS {
			if chaos.Visit(chaos.E3) {
				return 0, false, false
			}
			if in.Load() == inCpy {
				h.rec.Inc(obs.CtrE3)
				h.edgeR = edge
				h.idxR = idx
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
			in.CompareAndSwap(inCpy, word.With(inCpy, word.RN)) {
			h.rec.Inc(obs.CtrL4)
			h.edgeR = edge
			h.idxR = sz - 3
			h.publishRight(hintW, edge, sz-3)
			return inVal, false, true
		}
		h.rec.Inc(obs.CtrFailL4)
	}
	return 0, false, false
}
