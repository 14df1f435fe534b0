package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/arena"
	"repro/internal/chaos"
	"repro/internal/hazard"
	"repro/internal/word"
)

// This file wires the hazard-pointer domain (internal/hazard) and the
// bounded node pool (internal/arena.NodePool) into the deque: node
// retirement, grace-gated recycling, and the hard live-node bound.
//
// # Why recycling is safe (DESIGN.md §10 carries the full argument)
//
// If removed nodes were never reused, safety would be structural: a stale
// ID would resolve to nil and a stale pointer would lead to a node whose
// slots never change again. Recycling re-arms both hazards, and five
// invariants disarm them:
//
//  I0  Retired means unresolvable. markRetired clears the node's registry
//      entry the moment the retire guard is won — before the key reaches the
//      hazard domain — and the entry is republished (Registry.Reinstall) only
//      after the node's next life is linked. So at every instant,
//      resolve(id) != nil implies the node is live on (or being appended to)
//      the chain: stale IDs and stale hints cannot acquire a reference to a
//      node whose grace period is already running. The retired node itself
//      parks in the limbo IDMap until the domain expires its key.
//  I1  Slot counters strictly advance, across lives. Every in-life slot
//      write goes through word.Bump/word.With, each of which increments the
//      counter; reinitNode additionally adds an explicit Bump, so the first
//      word of a new life exceeds the final word of the old life by two.
//      A CAS armed with a word copied in an earlier life therefore can never
//      succeed in a later one: armed copies carry counters no greater than
//      the old life's final counter, and every word the slot will ever hold
//      again is strictly larger. (Cross-life ABA would need a full 2^32
//      counter wrap between the copy and the CAS — the same assumption the
//      paper's own two-CAS protocol already makes within one life.)
//  I2  Same-ID reuse with deferred install. A pooled node keeps its registry
//      ID forever; the entry — cleared at retire (I0) — is republished only
//      AFTER the link CAS that makes the node reachable again. Between pool
//      exit and install the node is invisible to resolve(), so no stale edge
//      cache and no straddle validation can touch a half-prepared spare.
//  I3  Escape pointers survive reinit. reinitNode never touches escape, and
//      every retire stores a fresh escape before clearing the entry — so a
//      walker stranded on an unresolvable node can always read its escape
//      and move toward the chain. The remover retires the chain right after
//      its L7 CAS, before it refreshes the opposite hint: its own refresh
//      walk may start on the node it just unlinked, and must find the
//      escape already set (other walkers that see a nil escape restart
//      until the remover, which waits on no one, sets it). Unresolvable
//      nodes are escape-only territory: guarded walks (below) never read
//      their slots.
//  I4  Retires are batched per removal walk. unregister finishes
//      reading the sealed chain before any of its IDs reach the domain, so a
//      scan triggered by the retire cannot recycle a node the walk is still
//      reading. (The chain is exclusively the removing walk's: only the L7/R7
//      winner reaches it, and its nodes are unretired — hence unfreeable —
//      until the walk itself marks them.) flushRetires therefore runs before
//      the remover's hint-refresh walk, and that walk needs nothing more:
//      it is an ordinary guarded oracle walk, so it reads slots only of
//      nodes it has guarded — by I0 never one whose grace period is
//      running — and it leaves the retired chain through escapes alone.
//      An atomic once-guard on the node makes retire exactly-once.
//
// # Reader participation
//
// Readers identify themselves with hazard pointers: guardNode/guardNeighbor
// advertise a node's key in one of the participant's slots and then
// validate resolve(id) == n. Validation is sound because I0 clears the
// entry no later than the retire hand-off: observing a non-nil entry after
// the Protect store proves the protect preceded the clear, hence preceded
// the retire, hence precedes any scan snapshot that could free the key — so
// that snapshot sees the hazard. Reads of unguarded nodes (walk-interior
// neighbor peeks) only ever feed oracle answers, which every transition
// re-validates before CASing.
//
// The domain then orders Put(pool)/Reinstall: it frees on the amortized
// scan, skipping advertised keys. This is the paper's Section II-C division
// of labor with the GC's role taken over by counters, the limbo table, and
// deferred install.

// DefaultPoolNodes bounds the node pool when Config.PoolNodes is zero.
// Steady-state churn alternates between a handful of nodes per side; 32
// retains enough to absorb bursts from many handles while capping retained
// slack at ~32 node footprints.
const DefaultPoolNodes = 32

// NodeFootprint returns the approximate heap bytes one node with sz slots
// retains: the node header (including its cache-line spacers) plus the slot
// array. Callers translating a byte budget into Config.MaxLiveNodes divide
// by this.
func NodeFootprint(sz int) int64 {
	return int64(unsafe.Sizeof(node{})) + int64(sz)*8
}

// initReclaim builds the per-deque reclamation state: the node pool, the
// limbo table, and the hazard domain. Called from New after cfg is
// defaulted.
func (d *Deque) initReclaim() {
	d.hazDom = hazard.NewDomain(d.cfg.MaxThreads, d.freeNode)
	cap := d.cfg.PoolNodes
	if cap == 0 {
		cap = DefaultPoolNodes
	}
	d.pool = arena.NewNodePool[node](cap)
	d.limbo = arena.NewIDMap[node](d.cfg.RegistryLimit)
}

// retireKey converts between node IDs and domain keys. The domain reserves
// key 0 and node IDs start at 0, so keys are id+1.
func retireKey(id uint32) uint64 { return uint64(id) + 1 }
func keyToID(key uint64) uint32  { return uint32(key - 1) }

// guardNode makes nd safe to read for the rest of the current operation
// attempt, advertising it in the handle's primary hazard slot and
// validating that it is still registered. A false return means nd is
// retired (or a half-prepared spare): the caller must not read its slots —
// only its escape pointer (invariant I3).
//
// Soundness of the protect-then-validate order is invariant I0's job: the
// registry entry is cleared no later than the retire hand-off, so a non-nil
// entry observed after the Protect store proves the advertisement precedes
// every scan snapshot that could free the node. Advertisements outlive the
// operation: the next operation's guards overwrite them, which keeps the
// edge cache's node safe from recycling between operations at no cost;
// Drain withdraws them. h may be nil (diagnostic walks), which skips the
// advertisement.
func (d *Deque) guardNode(h *Handle, nd *node) bool {
	if h != nil {
		h.hp.Protect(0, retireKey(nd.id))
	}
	return d.resolve(nd.id) == nd
}

// guardNeighbor is guardNode for the second node a transition touches (the
// straddle neighbor), using the participant's second hazard slot so the edge
// node's advertisement stays in place.
func (d *Deque) guardNeighbor(h *Handle, nd *node) bool {
	if h != nil {
		h.hp.Protect(1, retireKey(nd.id))
	}
	return d.resolve(nd.id) == nd
}

// markRetired records one removed node during an unregister walk. The atomic
// once-guard makes a node's retire exactly-once, so overlapping walks can
// never double-pool a node. The winner clears the registry entry on the
// spot — invariant I0: from here on no stale ID can acquire the node — and
// parks it in limbo and on the handle's retire batch; the walk must finish
// reading the sealed chain before any ID reaches the domain (invariant I4).
func (d *Deque) markRetired(h *Handle, n *node) {
	// Shadow eviction: move a side shadow off the retiring node so hint
	// readers start from the surviving edge instead of removal history.
	// Best-effort — a lost CAS means the shadow already moved on.
	if esc := n.escape.Load(); esc != nil {
		for s := range d.hint {
			if d.hint[s].nd.Load() == n {
				d.hint[s].nd.CompareAndSwap(n, esc)
			}
		}
	}
	if !n.retired.CompareAndSwap(0, 1) {
		return
	}
	d.reg.Clear(n.id)
	d.nodesRetired.Add(1)
	if !d.limbo.Put(n.id, n) {
		// Unreachable under the once-guard: an ID is in limbo only between
		// its retire and its free, and the guard serializes retires.
		panic("core: retired node's limbo slot occupied")
	}
	h.retireBatch = append(h.retireBatch, retireKey(n.id))
}

// flushRetires hands the handle's batched retires to the grace domain, after
// the unregister walk that produced them has finished. A chaos-forced
// failure defers the whole batch to the next flush — legal, it models a
// grace period that has not yet expired.
func (d *Deque) flushRetires(h *Handle) {
	if len(h.retireBatch) == 0 {
		return
	}
	if chaos.Visit(chaos.Retire) {
		return
	}
	for _, key := range h.retireBatch {
		h.hp.Retire(key)
	}
	h.retireBatch = h.retireBatch[:0]
}

// freeNode is the domain's freeFn: the grace period for key has expired —
// every reader that could have guarded the node's previous life has moved
// on — so the node may be physically reused. The registry entry
// was already cleared at retire (invariant I0); here the node leaves limbo
// and recycles through the pool. On pool overflow it goes to the GC and
// leaves the memory account, and its ID is spent for good.
func (d *Deque) freeNode(key uint64) {
	d.nodesFreed.Add(1)
	n := d.limbo.Take(keyToID(key))
	if n != nil && d.pool.Put(n) {
		return
	}
	d.memNodes.Add(-1)
}

// storeKeepCt writes val into slot s with a counter-advancing write
// (invariant I1). Spare preparation uses it for every slot write so a
// recycled node's counters keep climbing from its previous life's values.
func storeKeepCt(s *atomic.Uint64, val uint32) {
	s.Store(word.With(s.Load(), val))
}

// reinitNode rewrites a pooled node's slots for a new life as an append
// spare: split LN slots then RN slots, exactly newNodeTry's layout. Every
// store advances the slot's counter twice — word.With already increments,
// and the explicit Bump on top gives the new life a strict two-step lead —
// so every word the slot holds in this life compares unequal to every word
// any reader copied out of a prior life (invariant I1), and a CAS armed with
// such a copy keeps failing forever. The retire guard is re-armed here, on
// the same goroutine that will link the node, while the node is still
// unresolvable (invariant I2).
func (d *Deque) reinitNode(n *node, split int) {
	n.retired.Store(0)
	for i := 0; i < split; i++ {
		s := &n.slots[i]
		s.Store(word.Bump(word.With(s.Load(), word.LN)))
	}
	for i := split; i < d.sz; i++ {
		s := &n.slots[i]
		s.Store(word.Bump(word.With(s.Load(), word.RN)))
	}
	d.initSlotHints(n, split)
	// escape is deliberately preserved (invariant I3).
}

// installSpare republishes a recycled spare's registry entry after the link
// CAS that made it reachable committed (invariant I2's deferred install).
// Fresh spares were installed at allocation and need nothing.
//
// Between the link CAS and the Reinstall there is a bounded window in which
// other threads resolve the freshly linked ID to nil and fall back to the
// escape/restart protocol; see the comment at the L6 call site in left.go.
func (h *Handle) installSpare(n *node, needsInstall *bool) {
	if !*needsInstall {
		return
	}
	*needsInstall = false
	if !h.d.reg.Reinstall(n.id, n) {
		// Unreachable under I0/I2: the entry stays nil from retire to
		// install.
		panic("core: recycled node's registry entry occupied at install")
	}
}

// accountFresh charges one fresh node allocation against the live-node
// bound. It reports false — the caller surfaces ErrFull — when the bound
// would be exceeded; the increment is rolled back so accounting stays
// exact.
func (d *Deque) accountFresh() bool {
	n := d.memNodes.Add(1)
	if max := d.cfg.MaxLiveNodes; max != 0 && n > int64(max) {
		d.memNodes.Add(-1)
		return false
	}
	for {
		hw := d.memHighWater.Load()
		if n <= hw || d.memHighWater.CompareAndSwap(hw, n) {
			return true
		}
	}
}

// MemStats is a snapshot of the node-memory account.
type MemStats struct {
	// LiveNodes counts node structures currently retained by this deque:
	// chained + retired-awaiting-grace + pooled. Bounded by
	// Config.MaxLiveNodes when set.
	LiveNodes int64
	// HighWater is the maximum LiveNodes has ever reached.
	HighWater int64
	// LimitNodes is Config.MaxLiveNodes (0 = unbounded).
	LimitNodes uint32
	// Retired counts nodes handed to the grace domain (monotone).
	Retired uint64
	// Freed counts grace expirations — nodes recycled or released (monotone).
	Freed uint64
	// Recycled counts pool reuses (monotone); Pooled is the current pool
	// occupancy.
	Recycled uint64
	Pooled   int
}

// MemStats returns the node-memory account. Safe to call concurrently with
// operations.
func (d *Deque) MemStats() MemStats {
	return MemStats{
		LiveNodes:  d.memNodes.Load(),
		HighWater:  d.memHighWater.Load(),
		LimitNodes: d.cfg.MaxLiveNodes,
		Retired:    d.nodesRetired.Load(),
		Freed:      d.nodesFreed.Load(),
		Recycled:   d.pool.Recycled(),
		Pooled:     d.pool.Len(),
	}
}

// releaseSpare uncharges one cached spare node: back to the pool when it
// has room, otherwise to the GC with the memory account decremented. A fresh spare was registered at allocation and must leave the
// registry first — pooled nodes keep nil entries until their next install
// (invariant I2); a pool-origin spare's entry is already nil.
func (h *Handle) releaseSpare(n *node, fromPool bool) {
	d := h.d
	if !fromPool {
		d.reg.Clear(n.id)
	}
	if d.pool.Put(n) {
		return
	}
	d.memNodes.Add(-1)
}

// Drain flushes this handle's deferred reclamation state: cached spare
// nodes return to the pool (or the GC) and leave the handle, batched retires
// go to the domain, hazard advertisements are withdrawn, and the handle's
// pending list is swept. Call it before parking a handle for a long time
// (connection freelists, worker pools) — an idle handle's advertisements
// pin the nodes they name, its pending list strands retired nodes, and a
// stranded spare would permanently shrink the MaxLiveNodes budget. Safe to
// call at any operation boundary; the handle remains usable.
func (h *Handle) Drain() {
	for s, n := range h.spare {
		if n != nil {
			h.spare[s] = nil
			fromPool := h.spareInstall[s]
			h.spareInstall[s] = false
			h.releaseSpare(n, fromPool)
		}
	}
	// Push batched retires even under a chaos schedule: Drain is the
	// explicit "get it all out" call.
	for _, key := range h.retireBatch {
		h.hp.Retire(key)
	}
	h.retireBatch = h.retireBatch[:0]
	// Withdraw advertisements so a parked handle pins no keys, drop the
	// edge caches they were protecting, then sweep.
	h.hp.ClearAll()
	h.edge = [2]*node{}
	h.hp.Drain()
}

// PendingRetires returns the number of this handle's retired-but-not-freed
// nodes (batch + domain pending list). Diagnostics and tests.
func (h *Handle) PendingRetires() int {
	return len(h.retireBatch) + h.hp.Pending()
}
