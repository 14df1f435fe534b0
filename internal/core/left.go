package core

import (
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file implements the transitions of push_left (Fig. 6) and pop_left
// (Fig. 12), one attempt each against the oracle's edge, and runs them for
// both ends. The paper writes out only the left side and calls the right
// side "symmetric code" (Figs. 6 and 12 captions). Here every side-dependent
// routine of the package — these transitions and the spare shaping, the
// oracle walk and slot scan (oracle.go), the batch run extensions
// (batch.go), the sealed-chain unregister walk, the hint publish and the
// opposite-hint refresh — is written once, in the left side's
// coordinates, and reaches slots and reserved values through the side's
// sideCoords. The retry loops that drive the transitions are in ops.go.

// sideCoords maps one side's coordinates onto a node. A logical index j
// counts from the side's own border inward: 0 is the side's border link
// slot, 1 its outermost data slot, sz-2 its innermost and sz-1 the far
// border link. On the left, logical j is physical slot j; on the right it
// is slot sz-1-j. The map is (j ^ flip) + base, with flip 0 and base 0 on
// the left and flip -1 and base sz on the right: a subtraction, because
// j ^ (sz-1) mirrors only power-of-two node sizes and New accepts any size
// from MinNodeSize up. The reserved values pair on the low bit (LN^1 == RN,
// LS^1 == RS), so the right side's nulls and seals are the left side's with
// that bit flipped. Data values and node IDs are never transformed.
type sideCoords struct {
	flip, base       int
	null, seal       uint32 // the side's own null and seal: LN, LS on the left
	oppNull, oppSeal uint32 // the opposite side's: RN, RS on the left
}

func newSideCoords(s obs.Side, sz int) sideCoords {
	m, f := -int(s), uint32(s)
	return sideCoords{
		flip: m, base: sz & m,
		null: word.LN ^ f, seal: word.LS ^ f,
		oppNull: word.RN ^ f, oppSeal: word.RS ^ f,
	}
}

// at returns n's slot at logical index j.
func (c *sideCoords) at(n *node, j int) *atomic.Uint64 { return &n.slots[(j^c.flip)+c.base] }

// shapeSpare returns a node shaped for an append on side s — every slot the
// side's null, the new datum in the innermost data slot, the far link aimed
// back at edge (Fig. 6 lines 102-104) — reusing the handle's cached spare
// for the side when an earlier append lost its race. Every write advances the slot's counter in
// place (storeKeepCt): a fresh node's counters simply step off 0, while a
// recycled node's counters must never regress below its previous life's
// values or CASes armed back then could succeed now (reclaim.go invariant
// I1). ok=false means allocation failed; h.allocErr holds ErrFull.
func (h *Handle) shapeSpare(s obs.Side, v uint32, edge *node) (*node, bool) {
	d := h.d
	c := &d.sides[s]
	n := h.spare[s]
	if n == nil {
		split := d.sz // all LN
		if s == obs.SideRight {
			split = 0 // all RN
		}
		nn, fromPool, err := d.newNodeTry(split)
		if err != nil {
			h.allocErr = err
			return nil, false
		}
		n = nn
		h.spare[s] = n
		h.spareInstall[s] = fromPool
	}
	storeKeepCt(c.at(n, d.sz-2), v)
	storeKeepCt(c.at(n, d.sz-1), edge.id)
	// Both sides' hints name the datum, in each side's own indices.
	n.slotHint[s].Store(int64(d.sz - 2))
	n.slotHint[s^1].Store(1)
	return n, true
}

// pushTransitions runs one push attempt on side s against the edge the
// oracle found (idx is a logical index of the side): snapshot, validate,
// and apply the transition the edge type calls for. The comments name the
// left side's values; on the right every null and seal is the mirror one.
// It reports completion; false means "state moved under us (or we only
// helped remove a sealed node), retry from the oracle".
func (d *Deque) pushTransitions(h *Handle, s obs.Side, v uint32, edge *node, idx int, hintW uint64) bool {
	sz := d.sz
	c := &d.sides[s]
	in := c.at(edge, idx)
	inCpy := in.Load()
	inVal := word.Val(inCpy)
	out := c.at(edge, idx-1)
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
	if inVal == c.null || inVal == c.seal ||
		(idx != 1 && outVal != c.null) ||
		(idx == sz-1 && inVal != c.oppNull) {
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
			h.edge[s] = edge
			h.idx[s] = idx - 1
			h.publish(s, hintW, edge, idx-1)
			return true
		}
		h.rec.Inc(obs.CtrFailL1)
		return false
	}

	// Boundary edge: append a new node, transition L6 (lines 100-108).
	if outVal == c.null {
		if inVal == c.oppSeal {
			// A right-sealed node with no left neighbor is off the chain;
			// stale view.
			return false
		}
		nw, ok := h.shapeSpare(s, v, edge)
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
			h.installSpare(nw, &h.spareInstall[s])
			h.spare[s] = nil
			h.Appends++
			h.edge[s] = nw
			h.idx[s] = sz - 2
			h.rec.Inc(obs.CtrHintPublish)
			d.hint[s].set(hintW, nw)
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
	far := c.at(outNd, sz-2)
	farCpy := far.Load()
	// Ensure the left neighbor points back (lines 118-120).
	if word.Val(c.at(outNd, sz-1).Load()) != edge.id {
		return false
	}
	switch word.Val(farCpy) {
	case c.null:
		// Straddling push, transition L3 (lines 123-127).
		if chaos.Visit(chaos.L3) {
			h.rec.Inc(obs.CtrFailL3)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			far.CompareAndSwap(farCpy, word.With(farCpy, v)) {
			h.rec.Inc(obs.CtrL3)
			outNd.slotHint[s].Store(int64(sz - 2))
			h.edge[s] = outNd
			h.idx[s] = sz - 2
			h.rec.Inc(obs.CtrHintPublish)
			d.hint[s].set(hintW, outNd)
			return true
		}
		h.rec.Inc(obs.CtrFailL3)
	case c.seal:
		// Remove the sealed left neighbor, transition L7 (lines 130-136),
		// then retry the push from scratch.
		if chaos.Visit(chaos.L7) {
			h.rec.Inc(obs.CtrFailL7)
			return false
		}
		if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
			out.CompareAndSwap(outCpy, word.With(outCpy, c.null)) {
			h.rec.Inc(obs.CtrL7)
			h.Removes++
			edge.slotHint[s].Store(1)
			h.edge[s] = edge
			h.idx[s] = 1
			h.rec.Inc(obs.CtrHintPublish)
			d.hint[s].set(hintW, edge)
			d.unregister(h, s, outNd, edge) // retire the removed chain
			d.refreshHint(h, s^1)
		} else {
			h.rec.Inc(obs.CtrFailL7)
		}
	}
	return false
}

// popTransitions runs one pop attempt on side s against the oracle's edge,
// written like pushTransitions. done=false means retry; otherwise empty
// reports EMPTY and v holds the popped value.
func (d *Deque) popTransitions(h *Handle, s obs.Side, edge *node, idx int, hintW uint64) (v uint32, empty, done bool) {
	sz := d.sz
	c := &d.sides[s]
	in := c.at(edge, idx)
	inCpy := in.Load()
	inVal := word.Val(inCpy)
	out := c.at(edge, idx-1)
	outCpy := out.Load()
	outVal := word.Val(outCpy)

	// Check the oracle's edge (lines 158-161; RS is allowed through to
	// the straddling branch for the same reason as in the push — the
	// paper's E2 check at line 193 expects to see it).
	if inVal == c.null || inVal == c.seal ||
		(idx != 1 && outVal != c.null) ||
		(idx == sz-1 && inVal != c.oppNull) {
		return 0, false, false
	}

	// Interior edge: empty check E1 or interior pop L2 (lines 165-174).
	if idx != 1 {
		if inVal == c.oppNull {
			// E1: out was LN (validated above) and in re-reads unchanged;
			// the adjacent (LN, RN) pair proves the span was empty when
			// out was read — that read is EMPTY's linearization point.
			// A forced chaos failure models the re-read observing change.
			if chaos.Visit(chaos.E1) {
				return 0, false, false
			}
			if in.Load() == inCpy {
				h.rec.Inc(obs.CtrE1)
				h.edge[s] = edge
				h.idx[s] = idx
				return 0, true, true
			}
			return 0, false, false
		}
		if chaos.Visit(chaos.L2) {
			h.rec.Inc(obs.CtrFailL2)
			return 0, false, false
		}
		if out.CompareAndSwap(outCpy, word.Bump(outCpy)) &&
			in.CompareAndSwap(inCpy, word.With(inCpy, c.null)) {
			h.rec.Inc(obs.CtrL2)
			h.edge[s] = edge
			h.idx[s] = idx + 1
			if idx+1 == sz-1 {
				// The node is drained: its border slot holds a link, not a
				// datum, so a cached attempt there can never validate. Let
				// the next operation take the real oracle.
				h.edge[s] = nil
			}
			h.publish(s, hintW, edge, idx+1)
			return inVal, false, true
		}
		h.rec.Inc(obs.CtrFailL2)
		return 0, false, false
	}

	// Straddling edge: follow the straddling pop progression — seal L5,
	// remove L7, then fall through to the boundary pop (lines 179-218).
	if outVal != c.null {
		outNd := d.resolve(outVal)
		if outNd == nil || !d.guardNeighbor(h, outNd) {
			return 0, false, false
		}
		far := c.at(outNd, sz-2)
		farCpy := far.Load()
		if word.Val(c.at(outNd, sz-1).Load()) != edge.id {
			return 0, false, false
		}

		if word.Val(farCpy) == c.null {
			// Straddling empty check E2 (lines 193-196). A forced failure
			// must retry from the oracle, not fall through: the natural
			// fall-through is only safe because a changed in-slot makes the
			// seal CAS below fail, and with in unchanged a fall-through seal
			// under in == RS would create two sealed nodes pointing at each
			// other — the exact state this check exists to prevent.
			if inVal == c.oppNull || inVal == c.oppSeal {
				if chaos.Visit(chaos.E2) {
					return 0, false, false
				}
				if in.Load() == inCpy {
					h.rec.Inc(obs.CtrE2)
					h.edge[s] = edge
					h.idx[s] = idx
					return 0, true, true
				}
			}
			// Seal the left neighbor, transition L5 (lines 197-201); on
			// success, continue the progression with refreshed copies.
			if chaos.Visit(chaos.L5) {
				h.rec.Inc(obs.CtrFailL5)
			} else if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
				far.CompareAndSwap(farCpy, word.With(farCpy, c.seal)) {
				h.rec.Inc(obs.CtrL5)
				farCpy = word.With(farCpy, c.seal)
				inCpy = word.Bump(inCpy)
			} else {
				h.rec.Inc(obs.CtrFailL5)
			}
		}

		if word.Val(farCpy) == c.seal {
			// Straddling empty check on a sealed neighbor (lines 204-207).
			// in == RS also certifies emptiness: both neighbors sealed
			// means both sides have certified the span empty, and the
			// check returning EMPTY here is what prevents two sealed
			// nodes from ever pointing at each other.
			iv := word.Val(inCpy)
			if iv == c.oppNull || iv == c.oppSeal {
				if chaos.Visit(chaos.E2) {
					return 0, false, false
				}
				if in.Load() == inCpy {
					h.rec.Inc(obs.CtrE2)
					h.edge[s] = edge
					h.idx[s] = idx
					return 0, true, true
				}
			}
			// Remove the sealed neighbor, transition L7 (lines 208-216).
			if chaos.Visit(chaos.L7) {
				h.rec.Inc(obs.CtrFailL7)
				return 0, false, false
			}
			if in.CompareAndSwap(inCpy, word.Bump(inCpy)) &&
				out.CompareAndSwap(outCpy, word.With(outCpy, c.null)) {
				h.rec.Inc(obs.CtrL7)
				h.Removes++
				edge.slotHint[s].Store(1)
				h.edge[s] = edge
				h.idx[s] = 1
				h.rec.Inc(obs.CtrHintPublish)
				hintW = d.hint[s].set(hintW, edge)
				d.unregister(h, s, outNd, edge)
				d.refreshHint(h, s^1)
				inCpy = word.Bump(inCpy)
				outCpy = word.With(outCpy, c.null)
				outVal = c.null
			} else {
				h.rec.Inc(obs.CtrFailL7)
			}
		}
	}

	// Boundary edge: empty check E3 or boundary pop L4 (lines 220-229).
	if outVal == c.null {
		inVal = word.Val(inCpy)
		if inVal == c.oppNull || inVal == c.oppSeal {
			// RS at a boundary means the right side certified the deque
			// empty and is mid-removal; EMPTY is correct if stable.
			if chaos.Visit(chaos.E3) {
				return 0, false, false
			}
			if in.Load() == inCpy {
				h.rec.Inc(obs.CtrE3)
				h.edge[s] = edge
				h.idx[s] = idx
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
			in.CompareAndSwap(inCpy, word.With(inCpy, c.null)) {
			h.rec.Inc(obs.CtrL4)
			h.edge[s] = edge
			h.idx[s] = 2
			h.publish(s, hintW, edge, 2)
			return inVal, false, true
		}
		h.rec.Inc(obs.CtrFailL4)
	}
	return 0, false, false
}

// refreshHint runs side s's oracle and installs its answer — the paper's
// hint_r(oracle_r(right_node_hint)) from the remove transitions (lines
// 135/212), called with the side opposite the removal: after a removal,
// both global hints must be moved off the retired node so future threads
// cannot trace to it.
func (d *Deque) refreshHint(h *Handle, s obs.Side) {
	nd, idx, hw := d.oracle(h, s, h.rec)
	h.rec.Inc(obs.CtrHintPublish)
	nd.slotHint[s].Store(int64(idx))
	d.hint[s].set(hw, nd)
}
