package core

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/word"
)

// This file implements l_oracle and r_oracle (Fig. 5 lines 52-55), written
// once in the left side's coordinates (see sideCoords in left.go). An oracle
// returns a (node, index) pair that identified the side's edge at some point
// during the call; staleness is tolerated because every transition
// re-validates through its two-CAS protocol. Oracles are also the traversal
// engine: they walk off sealed nodes back to the active chain (sealed nodes
// always link inward toward nodes sealed no earlier — Theorem 2's argument)
// and walk across straddles so the returned node actually contains the
// outermost datum.
//
// Dead territory: a walk can stand on a removed node whose inward link ID
// no longer resolves. Each removed node carries an escape pointer to the
// node that was the edge at its removal (see core.go), so the walk can
// always move inward — but pointer-chasing removal history one node at a
// time is a trap under churn: with nodes retiring every few operations, a
// lagging walker can chase history at the same rate others create it, and
// the slowdown feeds itself (slower walks → staler hints → longer walks).
// Two measures keep dead-territory excursions O(1) amortized:
//
//   - hint-freshness restart: before following an escape, re-read the
//     side's hint word; if it changed since this walk began, some operation
//     completed and republished a near-edge hint — restart from it instead
//     of chasing. (A lone thread sees an unchanged hint and must follow the
//     escape chain once; with no concurrent churn the chain is static and
//     finite, preserving obstruction freedom.)
//   - path compression: when an escape's target is itself dead, splice the
//     target's escape into the current node, collapsing history chains for
//     every later traverser, union-find style.

// advanceShadow repairs a hint whose shadow node is dead: it publishes the
// shadow's (compressed) escape target back into the hint, so one walker's
// progress through removal history is shared by every later reader instead
// of each privately re-walking the same chain. Returns the node to walk
// from.
func (d *Deque) advanceShadow(side *sideHint, nd *node) *node {
	for i := 0; i < maxShadowAdvance; i++ {
		if d.resolve(nd.id) != nil {
			return nd // live: a fine walk start
		}
		esc := nd.escape.Load()
		if esc == nil {
			return nd
		}
		if d.resolve(esc.id) == nil {
			if nn := esc.escape.Load(); nn != nil && nn != esc {
				nd.escape.Store(nn) // compress
			}
		}
		side.nd.CompareAndSwap(nd, esc) // share the progress
		nd = esc
	}
	return nd
}

// maxShadowAdvance bounds the per-restart shadow repair; combined with path
// compression the chain collapses geometrically across restarts.
const maxShadowAdvance = 32

// escapeFrom decides how a walk leaves removed node nd: restart from the
// hint when it has moved (restart == true), otherwise follow — and
// shorten — the escape chain.
func (d *Deque) escapeFrom(side *sideHint, hintW uint64, nd *node) (next *node, restart bool) {
	if side.w.Load() != hintW {
		return nil, true // a fresher hint exists; chasing history is wasted work
	}
	next = nd.escape.Load()
	if next == nil {
		return nil, true
	}
	if d.resolve(next.id) == nil {
		if nn := next.escape.Load(); nn != nil && nn != next {
			nd.escape.Store(nn) // compress: skip next on future walks
		}
	}
	return next, false
}

// followInward resolves an inward link ID from nd, falling back to the
// escape protocol when the ID no longer resolves. restart tells the caller
// to re-read the hint and start over.
func (d *Deque) followInward(side *sideHint, hintW uint64, nd *node, id uint32) (next *node, restart bool) {
	if next := d.resolve(id); next != nil {
		return next, false
	}
	return d.escapeFrom(side, hintW, nd)
}

// scan finds side s's outermost non-null slot, as a logical index in
// [1, sz-1], seeded by the node's slot hint for the side. Concurrent edits
// can skew the answer; callers validate.
func (d *Deque) scan(s obs.Side, n *node) int {
	c := &d.sides[s]
	i := clamp(int(n.slotHint[s].Load()), 1, d.sz-1)
	for i < d.sz-1 && word.Val(c.at(n, i).Load()) == c.null {
		i++
	}
	for i > 1 && word.Val(c.at(n, i-1).Load()) != c.null {
		i--
	}
	return i
}

// oracle locates side s's edge: the node and logical index of the
// outermost non-null slot on the active chain (a datum; or the opposite
// null or a link when the deque is empty). It also returns the hint word it
// started from, which callers thread into their hint updates. h carries the
// walk's reclamation guard (hazard advertisement + registration check, see
// guardNode); nil is allowed for diagnostic walks outside any handle.
func (d *Deque) oracle(h *Handle, s obs.Side, rec *obs.Rec) (*node, int, uint64) {
	rec.Inc(obs.CtrOracleWalk)
	var w wedgeCheck
	for {
		nd, hintW := d.hint[s].get()
		nd = d.advanceShadow(&d.hint[s], nd)
		if edge, idx, ok := d.oracleWalk(h, s, nd, hintW, rec); ok {
			return edge, idx, hintW
		}
		// Hops exhausted or the walk chose to restart: re-read the global
		// hint and start over.
		rec.Inc(obs.CtrOracleRestart)
		if chaos.Enabled {
			w.restart(d, s, hintW, nd)
		}
	}
}

// wedgeRestarts is how many consecutive restarts of one oracle call on an
// unchanged hint word the chaos build treats as a wedge. A restart is
// cheap (one short walk), and on an unchanged hint a lone walker repeats
// the same walk, so a count this high means the walk can never end — the
// solo non-termination obstruction freedom rules out — not a slow peer.
const wedgeRestarts = 1 << 20

// wedgeCheck counts an oracle call's consecutive restarts on one hint
// word. Only the chaos build consults it (the default build folds the
// check away), turning a wedge into a panic carrying the chain instead of
// a hung test.
type wedgeCheck struct {
	hintW uint64
	n     int
}

func (w *wedgeCheck) restart(d *Deque, side obs.Side, hintW uint64, start *node) {
	if hintW != w.hintW {
		w.hintW, w.n = hintW, 0
	}
	w.n++
	if w.n >= wedgeRestarts {
		panic(fmt.Sprintf("core: %s oracle wedged: %d restarts on unchanged hint word %#x from %s (registered=%v escape=%v)\nchain:\n%s",
			side, w.n, hintW, d.dumpNode(start), d.resolve(start.id) != nil, start.escape.Load() != nil, d.Dump()))
	}
}

// oracleSeeded is oracle with the per-handle edge cache in front: when the
// handle's cached edge node for side s still resolves, the cached (node,
// index) pair is returned directly — no hint load, no slot scan. This is
// sound because transitions validate their edge argument completely before
// CASing; a stale pair fails the attempt and the caller falls back to the
// real oracle (clearing the cache first, see the operation loops). cached
// reports whether the answer came from the cache; it feeds EdgeCacheHits on
// completion.
func (d *Deque) oracleSeeded(h *Handle, s obs.Side) (edge *node, idx int, hintW uint64, cached bool) {
	// guardNode both validates the cached node is still registered and
	// re-advertises it first — so a scan between operations cannot recycle
	// the node after this validation passes.
	if c := h.edge[s]; c != nil &&
		h.idx[s] >= 1 && h.idx[s] <= d.sz-1 && d.guardNode(h, c) &&
		!chaos.Visit(chaos.EdgeCache) {
		h.rec.Inc(obs.CtrEdgeCacheHit)
		return c, h.idx[s], d.hint[s].w.Load(), true
	}
	h.rec.Inc(obs.CtrEdgeCacheMiss)
	edge, idx, hintW = d.oracle(h, s, h.rec)
	return edge, idx, hintW, false
}

// oracleWalk runs one bounded walk from nd toward side s's edge. ok=false
// means the walk wants a restart from a fresh global hint. The comments
// name the left side's values and neighbors.
func (d *Deque) oracleWalk(h *Handle, s obs.Side, nd *node, hintW uint64, rec *obs.Rec) (*node, int, bool) {
	sz := d.sz
	c := &d.sides[s]
	side := &d.hint[s]
	hops := 0
walk:
	for ; hops <= maxOracleHops; hops++ {
		// A forced chaos failure aborts the walk as if the hop budget ran
		// out: the oracle restarts from a fresh global hint.
		if chaos.Visit(chaos.Oracle) {
			break walk
		}
		// Guard the node before reading its slots: advertise it and
		// confirm it is still registered. Unregistered nodes are retired —
		// possibly mid-recycle — so they are escape-only territory
		// (reclaim.go invariants I0/I3): follow the escape chain back
		// toward the live chain without touching their slots.
		if !d.guardNode(h, nd) {
			next, restart := d.escapeFrom(side, hintW, nd)
			if restart {
				break walk
			}
			nd = next
			continue walk
		}
		idx := d.scan(s, nd)
		v := word.Val(c.at(nd, idx).Load())
		switch {
		case v == c.null:
			// Raced: the slot scan chose just became LN. Rescan.
			continue walk

		case idx == sz-1 && !word.IsReserved(v):
			// Every data slot is LN and the right border links onward:
			// the edge lies somewhere to the right (an inward move).
			next, restart := d.followInward(side, hintW, nd, v)
			if restart {
				break walk
			}
			nd = next

		case v == c.seal:
			// A left-sealed node lies left of the active chain; its
			// right link leads inward.
			rv := word.Val(c.at(nd, sz-1).Load())
			if word.IsReserved(rv) {
				break walk
			}
			next, restart := d.followInward(side, hintW, nd, rv)
			if restart {
				break walk
			}
			nd = next

		case v == c.oppSeal:
			// A right-sealed node. If its left neighbor holds data,
			// the left edge is inside the neighbor; walk there. If the
			// neighbor is empty (or sealed), this straddle IS the left
			// edge: pop_left's E2 reports EMPTY from it and pushes can
			// straddle-push over it — so return it. If the link is
			// dead, the node was removed: take the escape protocol.
			lv := word.Val(c.at(nd, 0).Load())
			if word.IsReserved(lv) {
				break walk
			}
			if nbr := d.resolve(lv); nbr != nil {
				fv := word.Val(c.at(nbr, sz-2).Load())
				if !word.IsReserved(fv) {
					nd = nbr
					continue walk
				}
				if word.Val(c.at(nbr, sz-1).Load()) == nd.id {
					rec.Add(obs.CtrOracleHop, uint64(hops))
					return nd, 1, true
				}
				// The neighbor no longer points back: nd was removed.
			}
			next, restart := d.escapeFrom(side, hintW, nd)
			if restart {
				break walk
			}
			nd = next

		case idx == 1:
			// Outermost data slot. If a left neighbor exists and holds
			// data in its innermost slot, the span straddles into it
			// and the true edge is further left.
			lv := word.Val(c.at(nd, 0).Load())
			if !word.IsReserved(lv) {
				if nbr := d.resolve(lv); nbr != nil {
					fv := word.Val(c.at(nbr, sz-2).Load())
					if !word.IsReserved(fv) {
						nd = nbr
						continue walk
					}
				}
			}
			rec.Add(obs.CtrOracleHop, uint64(hops))
			return nd, 1, true

		default:
			rec.Add(obs.CtrOracleHop, uint64(hops))
			return nd, idx, true
		}
	}
	rec.Add(obs.CtrOracleHop, uint64(hops))
	return nil, 0, false
}

// maxOracleHops bounds a single walk before the oracle refreshes its view of
// the global hint. Long walks mean the hint is badly stale (or the chain is
// long); restarting from a fresh hint is both the fast and the simple way
// out.
const maxOracleHops = 1 << 16
