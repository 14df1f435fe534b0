// Package core implements the paper's contribution: an unbounded,
// obstruction-free, linearizable double-ended queue (Section II).
//
// # Structure
//
// The deque is a doubly-linked list of nodes, each holding an array of SZ
// CAS-able 64-bit slots (32-bit payload, 32-bit counter — see package word).
// Interior slots 1..SZ-2 are data slots; border slots 0 and SZ-1 are link
// slots holding either a null (LN/RN) or the 32-bit registry ID of the
// neighboring node. Data values occupy one contiguous span across the chain;
// LN fills everything left of the span, RN everything right of it.
//
// # Transitions
//
// Every state change is one of a small set of two-CAS transitions (Section
// II-A3): interior push/pop (the HLM protocol verbatim), straddling push,
// boundary pop, sealing an empty neighbor (LS/RS into its innermost data
// slot), appending a fresh node, and removing a sealed node. Read-only empty
// checks use a read–read–re-read snapshot whose middle read is the
// linearization point. Each transition's first CAS bumps the counter of the
// slot just inside the edge, so concurrent edge operations on the same side
// invalidate one another — obstruction freedom with no helping and no
// interference between opposite ends (when nodes are big enough).
//
// # Edges
//
// An edge is interior (within a node's data slots), boundary (at a border
// slot with no neighbor), or straddling (aligned with a link between two
// nodes). Operations locate edges through per-side oracles seeded by global
// (node, count) hints and per-node slot hints; oracle answers may be stale —
// the transition CASes re-validate everything.
//
// # Memory reclamation (Go substitution for Section II-C)
//
// The paper retires removed nodes to thread-local lists and frees them under
// hazard-pointer protection. This port keeps the paper's 32-bit node IDs in
// the link slots, resolved through an ID registry (internal/arena.Registry).
// The remove transition clears the node's registry entry on the spot:
// threads holding only the stale ID get nil and restart from the global
// hint, whose node is carried as a real pointer and therefore always
// resolves, while stalled threads that already hold the node follow its
// escape pointer back to the chain. Removed nodes then return, keeping their
// IDs, to a bounded pool once no hazard pointer names them — the paper's own
// scheme. The entry-cleared-at-retire rule is what keeps stale IDs from ever
// reaching a node whose grace clock is running; reclaim.go states the
// invariants (I0-I4) that make same-ID reuse safe.
//
// # Elimination
//
// With Config.Elimination, each side gets an elimination array (Section
// II-D, Fig. 13): operations advertise themselves before looking for the
// edge, withdraw once they have it, and only scan for a partner after a
// failed attempt on the real deque — keeping the scan off the critical path.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/backoff"
	"repro/internal/chaos"
	"repro/internal/elim"
	"repro/internal/hazard"
	"repro/internal/obs"
	"repro/internal/pad"
	"repro/internal/word"
)

// ErrReserved is returned by pushes of the four reserved slot values.
var ErrReserved = errors.New("core: value is reserved")

// ErrFull is returned by pushes that hit a capacity limit. In this package
// that is a node append the pool cannot serve and the registry's ID space
// (Config.RegistryLimit) or the live-node bound (Config.MaxLiveNodes)
// refuses; pops and reclamation make room again, because removed nodes
// return to the pool with their IDs. The public
// Deque[T] also returns it when its value slab is full. Pops and interior
// pushes keep working either way. Callers that want to bound growth should
// treat ErrFull as a backpressure signal, not a fatal fault.
var ErrFull = errors.New("core: capacity limit reached")

// ErrContended is returned by the bounded-attempt Try* operations when the
// attempt budget was spent without completing — the obstruction-free
// algorithm's way of reporting "other threads kept winning". The deque is
// unchanged; retrying later (or falling back to the unbounded variants) is
// always safe.
var ErrContended = errors.New("core: attempt budget exhausted")

// Default configuration values.
const (
	// DefaultNodeSize is the paper's choice: "We chose 1024 as a
	// representative number of slots in each buffer."
	DefaultNodeSize = 1024
	// MinNodeSize is the smallest legal node: two border link slots plus
	// two data slots, so "innermost data slot" and "outermost data slot"
	// remain distinct positions.
	MinNodeSize = 4
	// DefaultMaxThreads sizes the elimination arrays.
	DefaultMaxThreads = 256
	// DefaultRegistryLimit bounds the node IDs a deque may ever allocate.
	// Recycled nodes keep their IDs, so only fresh allocations (the pool
	// was empty) and nodes the full pool turned away spend them.
	DefaultRegistryLimit = 1 << 26
	// DefaultWatchdogThreshold is the consecutive-failure streak that trips
	// the livelock watchdog. At the default backoff bounds a streak this
	// long has already spun through the full exponential range several
	// times, so the handle is either convoyed or being actively interfered
	// with; escalation (max window + a scheduler yield) is the cheap,
	// always-safe response.
	DefaultWatchdogThreshold = 256
	// streakStampAt is the failure-streak length at which a handle
	// snapshots its counter block and the clock for the flight recorder.
	// Ordinary CAS races lose a handful of rounds, never a quarter of the
	// watchdog threshold, so deferring the stamp keeps the counter copy and
	// clock read off the contended retry path; any streak long enough to
	// produce a flight record has already stamped.
	streakStampAt = DefaultWatchdogThreshold / 4
)

// ElimPlacement selects where elimination attempts happen, for the ablation
// of the paper's Section II-D design discussion.
type ElimPlacement uint8

const (
	// ElimOffCriticalPath is the paper's design: advertise before the
	// oracle, withdraw after it, scan only after a failed deque attempt.
	ElimOffCriticalPath ElimPlacement = iota
	// ElimOnCriticalPath is the naive design the paper argues against:
	// every operation first lingers in the elimination array hoping for a
	// partner, then works on the deque.
	ElimOnCriticalPath
)

// Config parameterizes a Deque. The zero value selects all defaults.
type Config struct {
	// NodeSize is the slot count SZ of each node (minimum MinNodeSize).
	NodeSize int
	// MaxThreads bounds concurrently registered handles.
	MaxThreads int
	// RegistryLimit bounds lifetime node allocations.
	RegistryLimit uint32
	// Elimination enables the per-side elimination arrays.
	Elimination bool
	// ElimPlacement selects the elimination protocol variant; only
	// meaningful when Elimination is true.
	ElimPlacement ElimPlacement
	// ElimSpins is how long ElimOnCriticalPath lingers waiting for a
	// partner before trying the deque (ignored by the paper's placement).
	ElimSpins int
	// LatSample is the latency-histogram sampling interval: every
	// LatSample-th call per handle records its duration into its class's
	// histogram. Single pushes and pops and whole PushN/PopN calls share
	// the one countdown; a batch call is one tick. 0 selects
	// obs.DefaultLatSample; negative disables latency recording.
	// Sampling is what keeps the two time.Now() calls inside the <=2%
	// observability budget; the obsoff build compiles recording away
	// entirely.
	LatSample int
	// PoolNodes bounds the pool that recycles removed nodes once the
	// hazard-pointer domain frees them (default DefaultPoolNodes; see
	// reclaim.go).
	PoolNodes int
	// MaxLiveNodes caps the number of node structures this deque may retain
	// at once — chained, awaiting grace, and pooled together. A push that
	// would allocate past the cap fails with ErrFull. 0 means unbounded.
	MaxLiveNodes uint32
}

func (c Config) withDefaults() Config {
	if c.NodeSize == 0 {
		c.NodeSize = DefaultNodeSize
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = DefaultMaxThreads
	}
	if c.RegistryLimit == 0 {
		c.RegistryLimit = DefaultRegistryLimit
	}
	// Node IDs travel through 32-bit link slots whose top four values are
	// reserved markers; clamp the limit so an ID can never collide.
	if c.RegistryLimit > word.MaxValue+1 {
		c.RegistryLimit = word.MaxValue + 1
	}
	if c.ElimSpins == 0 {
		c.ElimSpins = 128
	}
	if c.LatSample == 0 {
		c.LatSample = obs.DefaultLatSample
	}
	return c
}

// Deque is the unbounded obstruction-free deque over uint32 payloads
// (values must be <= word.MaxValue; the public generic wrapper funnels
// arbitrary types through an arena slab). All operations go through a
// Handle; handles are cheap and long-lived, one per worker goroutine.
type Deque struct {
	sz  int
	cfg Config

	reg *arena.Registry[node]

	// sides maps each end's logical slot indices and reserved values onto
	// a node (left.go); indexed by obs.Side, like every per-side pair below.
	sides [2]sideCoords

	// The side hints are the two hottest global words: every structural
	// transition CASes one of them. Each sideHint is padded to a full
	// cache line (see its definition) and a leading spacer keeps hint[0].w
	// off the line holding the read-only fields above, so a left-side
	// publish never invalidates the right side's hint line or the
	// config/registry reads on every oracle call.
	_    pad.Spacer
	hint [2]sideHint

	elims [2]*elim.Array

	// obsReg owns every handle's observability counter block; Metrics()
	// merges them. latReg owns the per-handle latency recorders
	// (latSample is the cached single-op sampling interval, 0 =
	// disabled), and flight is the always-on distress-event ring
	// (escalations, recoveries) — the deque's black box.
	obsReg obs.Registry

	latReg    obs.LatRegistry
	latSample uint32
	flight    *obs.Flight

	nextTID atomic.Int32

	// Reclamation state (reclaim.go). limbo parks retired nodes — whose
	// registry entries are cleared at retire time (invariant I0) — until
	// the hazard domain frees their keys and the pool takes them back.
	// memNodes is the node-memory account: +1 per fresh node allocation,
	// -1 when a node leaves for the GC (pool overflow after grace, or a
	// drained spare the pool would not retain).
	hazDom *hazard.Domain
	pool   *arena.NodePool[node]
	limbo  *arena.IDMap[node]

	memNodes     atomic.Int64
	memHighWater atomic.Int64
	nodesRetired atomic.Uint64
	nodesFreed   atomic.Uint64
}

// node is one buffer in the doubly-linked chain (Fig. 5 lines 22-37).
// When both ends operate inside one node, the two sides' slot-hint writes
// are the only header words they both touch; spacers give each side's hint
// its own cache line so opposite-end operations stay non-interfering (the
// property §II-A3 buys with large buffers) down to the header metadata.
// The ~128 bytes of padding are noise next to a default node's 8 KiB of
// slots.
type node struct {
	id    uint32
	slots []atomic.Uint64
	// retired is the exactly-once guard for handing this node to the
	// reclamation domain: CASed 0→1 by the unregister walk that retires
	// it, reset to 0 when the grace period expires and the node is
	// recycled. Ensures overlapping walks can never
	// double-pool a node.
	retired atomic.Uint32
	// escape is set by the remover just before the node's registry entry
	// is cleared: a GC-safe pointer to the node that was the active edge at
	// removal time. A traversal stranded on a removed node whose inward
	// link ID no longer resolves follows escape instead — the Go
	// equivalent of the paper's guarantee that hazard pointers keep a
	// retired node's inward chain traversable. The remover stores it right
	// after its L7 CAS and before its own hint-refresh walk. Another
	// walker that finds the node unlinked while escape is still nil
	// restarts, which only delays it: the remover sets escape within a
	// bounded number of its own steps. The remover's walk must never be
	// that walker, or it would restart forever with no one left to set
	// escape. Escape chains point strictly toward nodes removed later (or
	// still active), so following them terminates at the active chain.
	escape atomic.Pointer[node]
	// Slot hints (Fig. 5 lines 23-24), one per side and each a logical
	// index of its side: racy performance hints, stored atomically to keep
	// the race detector honest.
	slotHint [2]paddedHint
}

// paddedHint is one side's slot hint behind a spacer, so the two hints of
// a node sit on different cache lines.
type paddedHint struct {
	_ pad.Spacer
	atomic.Int64
}

// sideHint is the node_hint tuple of Fig. 5: a CAS-able (buffer, ct) word so
// a slow hint writer cannot clobber a newer hint, plus a shadow pointer that
// resolves the node without the registry — the traversal start must always
// resolve, even if the hinted node has since been removed and its registry
// entry cleared. The shadow may briefly trail the word; any once-valid node
// is an acceptable traversal start, so readers just take the shadow.
// The trailing pad rounds the struct to one cache line, so the left and
// right hints — adjacent elements of Deque.hint — never share a line: the
// hot words sit 64+ bytes apart with only inert padding between them.
type sideHint struct {
	w  atomic.Uint64
	nd atomic.Pointer[node]
	_  [pad.CacheLine - 16]byte
}

// get returns a traversal start node and the current hint word.
func (s *sideHint) get() (*node, uint64) {
	w := s.w.Load()
	return s.nd.Load(), w
}

// set installs n as the hint if the hint word still equals old, returning
// the now-current word (transition H). A forced chaos failure models losing
// the CAS to a concurrent publisher — always harmless, since hints are
// advisory and every transition re-validates.
func (s *sideHint) set(old uint64, n *node) uint64 {
	if chaos.Visit(chaos.H) {
		return s.w.Load()
	}
	nw := word.With(old, n.id)
	if s.w.CompareAndSwap(old, nw) {
		s.nd.Store(n)
		return nw
	}
	return s.w.Load()
}

// New returns an empty deque configured by cfg.
func New(cfg Config) *Deque {
	cfg = cfg.withDefaults()
	if cfg.NodeSize < MinNodeSize {
		panic(fmt.Sprintf("core: NodeSize %d below minimum %d", cfg.NodeSize, MinNodeSize))
	}
	if cfg.MaxThreads < 1 {
		panic("core: MaxThreads must be positive")
	}
	d := &Deque{
		sz:  cfg.NodeSize,
		cfg: cfg,
		reg: arena.NewRegistry[node](cfg.RegistryLimit),
	}
	for s := range d.sides {
		d.sides[s] = newSideCoords(obs.Side(s), cfg.NodeSize)
		if cfg.Elimination {
			d.elims[s] = elim.New(cfg.MaxThreads)
		}
	}
	if cfg.LatSample > 0 {
		d.latSample = uint32(cfg.LatSample)
	}
	d.flight = obs.NewFlight(0)
	d.initReclaim()
	// Initial node, split down the middle (Fig. 5 constructor).
	first := d.newNode(cfg.NodeSize / 2)
	for s := range d.hint {
		d.hint[s].w.Store(word.Pack(first.id, 0))
		d.hint[s].nd.Store(first)
	}
	return d
}

// newNode allocates and registers a node whose first split slots hold LN
// and the rest RN (Fig. 5 lines 27-35). It panics on registry exhaustion;
// only the constructor uses it (the first allocation cannot fail, and the
// pool is empty at construction, so the node is always fresh-installed).
func (d *Deque) newNode(split int) *node {
	n, _, err := d.newNodeTry(split)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return n
}

// newNodeTry is newNode reporting exhaustion as ErrFull instead of
// panicking — the push paths' graceful-degradation route. It tries the node
// pool first; a pooled node is reinitialized with counter-preserving writes
// and returned with fromPool=true, telling the caller it must Reinstall the
// registry entry after the link CAS commits (reclaim.go invariant I2). Fresh nodes are installed here, as always, and
// charged against Config.MaxLiveNodes.
func (d *Deque) newNodeTry(split int) (n *node, fromPool bool, err error) {
	if n := d.pool.Get(); n != nil {
		d.reinitNode(n, split)
		return n, true, nil
	}
	if !d.accountFresh() {
		return nil, false, ErrFull
	}
	n = &node{slots: make([]atomic.Uint64, d.sz)}
	for i := 0; i < split; i++ {
		n.slots[i].Store(word.Pack(word.LN, 0))
	}
	for i := split; i < d.sz; i++ {
		n.slots[i].Store(word.Pack(word.RN, 0))
	}
	d.initSlotHints(n, split)
	id, aerr := d.reg.TryAlloc(n)
	if aerr != nil {
		d.memNodes.Add(-1)
		return nil, false, ErrFull
	}
	n.id = id
	if n.id > word.MaxValue {
		// Unreachable: withDefaults clamps RegistryLimit below the
		// reserved range.
		panic("core: node ID collides with reserved slot values")
	}
	return n, false, nil
}

// initSlotHints aims each side's slot hint at its last null slot (or its
// outermost data slot) in a node whose first split slots hold LN and the
// rest RN.
func (d *Deque) initSlotHints(n *node, split int) {
	n.slotHint[obs.SideLeft].Store(int64(clamp(split-1, 1, d.sz-1)))
	n.slotHint[obs.SideRight].Store(int64(clamp(d.sz-split-1, 1, d.sz-1)))
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// resolve maps a node ID read from a link slot to its node. A nil result
// means the node was retired (its entry is cleared the moment its retire
// guard is won — reclaim.go invariant I0) or is a recycled spare awaiting
// install; the caller's view is stale and it should retry from the oracle.
// Readers that need the node to stay recyclable-free for subsequent slot
// reads go through guardNode/guardNeighbor rather than calling this
// directly.
func (d *Deque) resolve(id uint32) *node { return d.reg.Get(id) }

// unregister retires n after its removal from side s, plus any chain of
// nodes sealed on the same side hanging off n's outer link: they were only
// reachable through n (the paper's "another sealed node which has been
// sealed on the same side"), so they became garbage together with n. The
// paper leaves those to its garbage collector; the registry must drop them
// explicitly or they would stay pinned. Every node unregistered gets its
// escape pointer aimed at the surviving edge first, so stranded traversals
// always have a way back to the chain. Each node's registry entry is
// cleared on the spot (reclaim.go invariant I0), and the IDs are batched on
// the handle and only handed to the grace domain after the walk — the walk
// keeps reading the chain's link slots, and a retire that triggered an
// eager scan could otherwise recycle a node out from under it (invariant
// I4). The walk needs no hazard guard of its own: the sealed chain is
// reachable only through the removal the caller just won, and each node's
// slots are read before the walk marks it retired — an unretired node can
// never be freed.
func (d *Deque) unregister(h *Handle, s obs.Side, n *node, edge *node) {
	c := &d.sides[s]
	for n != nil {
		n.escape.Store(edge)
		v := word.Val(c.at(n, 0).Load())
		d.markRetired(h, n)
		if word.IsReserved(v) {
			break
		}
		p := d.resolve(v)
		if p == nil || word.Val(c.at(p, d.sz-2).Load()) != c.seal {
			break
		}
		n = p
	}
	d.flushRetires(h)
}

// NodeSize returns the configured slots-per-node.
func (d *Deque) NodeSize() int { return d.sz }

// Handle is a worker's registration: its elimination slot identity and
// cached spare nodes so an append whose race was lost does not reallocate.
// Handles are not safe for concurrent use; register one per goroutine.
type Handle struct {
	d *Deque

	tid int
	// The per-side fields below are indexed by obs.Side.
	//
	// spare caches an append node for each side (their slot layouts
	// differ, so they are not interchangeable). spareInstall records that
	// a spare came from the recycling pool and its registry entry must be
	// republished after the link CAS commits (reclaim.go invariant I2);
	// fresh spares are installed at allocation.
	spare        [2]*node
	spareInstall [2]bool

	// edge + idx remember exactly where this handle's last successful
	// operation on each side left the edge: the node and the in-slot (a
	// logical index of the side) of the would-be next operation. The next
	// operation hands the cached pair straight to the transition functions
	// (after checking the node still resolves), skipping the global hint
	// load AND the slot scan — on the common uncontended path an operation
	// touches no shared hint state at all. Safety does not depend on the
	// cache being right: transitions validate their (node, index) argument
	// completely before CASing, exactly as they must for a stale oracle
	// answer (the paper's central design point), so a wrong cache can only
	// cost a failed attempt and a fall back to the real oracle.
	edge [2]*node
	idx  [2]int
	// hintPub counts down interior-transition hint publishes.
	// Structural transitions (append, remove, straddle) publish the global
	// hint unconditionally — removal correctness depends on moving hints
	// off retired nodes — but interior pushes and pops only move the edge
	// one slot, so the handle publishes every hintPublishInterval-th one
	// (and refreshes the node's slot hint on the same cadence; scans by
	// other threads absorb the bounded staleness).
	hintPub [2]uint8

	// bo is the retry contention manager. The paper relies on scheduler
	// randomization to break obstruction-freedom's livelocks (§I); a
	// bounded exponential backoff is the textbook mechanism and is
	// essential on adversarial platforms (single-P runtimes, the race
	// detector's scheduler), where we observed convoy collapse without it.
	bo backoff.Backoff

	// allocErr carries a node-allocation failure (ErrFull) out of a
	// transition attempt: transitions report plain success/failure, so a
	// boundary push that cannot append parks the error here and fails the
	// attempt; the operation loop checks it before retrying. Cleared on
	// read.
	allocErr error

	// consecFails is the livelock watchdog: consecutive failed transition
	// attempts since the last success, across operations. Obstruction
	// freedom means a long failure streak is always caused by interference
	// (or a chaos schedule); each DefaultWatchdogThreshold-long streak
	// escalates the backoff to its maximum window and yields the
	// processor, which breaks the symmetric-retry convoys that pure
	// exponential backoff is slow to escape. ConsecFailsPeak and LivelockEscalations feed Stats.
	consecFails         uint64
	ConsecFailsPeak     uint64
	LivelockEscalations uint64

	// Appends and Removes count structural transitions performed through
	// this handle; Eliminated counts operations completed by elimination;
	// Retries counts failed attempts (stale oracle answers or lost CAS
	// races) that forced a full re-run of the oracle+transition cycle;
	// EdgeCacheHits counts operation cycles completed from an oracle walk
	// seeded by the per-handle edge cache. They feed tests, stats, and
	// EXPERIMENTS.md. The counters share the handle's cache lines on
	// purpose: a handle is single-threaded by contract, so its counters
	// are never contended — what matters is that separately allocated
	// handles never share lines, which Go's allocator guarantees for
	// these >64-byte structs.
	Appends       uint64
	Removes       uint64
	Eliminated    uint64
	Retries       uint64
	EdgeCacheHits uint64

	// hp is this handle's hazard-domain participant. retireBatch stages
	// removed-node keys during an unregister walk until flushRetires hands
	// them to the domain (reclaim.go).
	hp          *hazard.Participant
	retireBatch []uint64

	// rec is the handle's observability counter block (internal/obs): one
	// padded line of per-transition counters, written only by the owning
	// goroutine and read by Deque.Metrics. On the obsoff build it is
	// zero-size and every increment compiles away.
	rec *obs.Rec
	// lat is the handle's latency recorder (internal/obs histograms, one
	// per op class). Zero-size on obsoff builds.
	lat *obs.LatRec
	// Latency sampler (metrics.go): opTick is the countdown every single
	// op and every batch call decrements, rearmed by latGap with a
	// pseudo-random gap of mean Deque.latSample when it reaches zero and
	// parked at MaxUint64 when latency recording is off; sampleAt is the
	// sampled op's start. One decrement and one never-taken branch per
	// unsampled op, identical with or without -tags obsoff.
	opTick   uint64
	latGap   obs.LatGap
	sampleAt time.Time

	// Flight-recorder context. curOp/curSide are set at every operation
	// start (two plain stores on an owned line) so distress records can
	// name the op in trouble; streakBase/streakStart snapshot the counter
	// block and the clock once a failure streak reaches streakStampAt
	// (a quarter of the watchdog threshold), letting an escalation record carry the transition mask
	// and duration accumulated since then (short streaks never pay the
	// copy); escalated marks a streak that tripped the
	// watchdog so the next success writes a recover record.
	curOp       obs.Op
	curSide     obs.Side
	streakBase  [obs.NumCounters]uint64
	streakStart time.Time
	escalated   bool
}

// Stats is a copy of a Handle's operation counters.
type Stats struct {
	Appends       uint64
	Removes       uint64
	Eliminated    uint64
	Retries       uint64
	EdgeCacheHits uint64
	// ConsecFails is the current run of consecutive failed transition
	// attempts (0 right after any success); ConsecFailsPeak is the worst
	// run ever observed. A large peak means this handle sat in a
	// contention convoy or under an adversarial schedule.
	ConsecFails     uint64
	ConsecFailsPeak uint64
	// LivelockEscalations counts watchdog trips: every threshold-many
	// consecutive failures the handle escalated its backoff and yielded.
	LivelockEscalations uint64
}

// Stats returns a snapshot of the handle's counters. Like every Handle
// method it must be called from the handle's own goroutine.
func (h *Handle) Stats() Stats {
	return Stats{
		Appends:             h.Appends,
		Removes:             h.Removes,
		Eliminated:          h.Eliminated,
		Retries:             h.Retries,
		EdgeCacheHits:       h.EdgeCacheHits,
		ConsecFails:         h.consecFails,
		ConsecFailsPeak:     h.ConsecFailsPeak,
		LivelockEscalations: h.LivelockEscalations,
	}
}

// noteFailure records a failed transition attempt: retry accounting, the
// livelock watchdog (threshold DefaultWatchdogThreshold), and one backoff
// step. Call exactly once per
// failed oracle+transition cycle.
func (h *Handle) noteFailure() {
	h.Retries++
	h.consecFails++
	if obs.Enabled && h.consecFails == streakStampAt {
		// The streak has lasted a quarter of the watchdog threshold:
		// snapshot the counter block and the clock so an eventual
		// escalation record can say which transitions the op kept failing
		// at and for how long. Stamping at consecFails==1 would put the
		// counter copy and a clock read on every contended retry burst;
		// deferring to watchdog/4 keeps short streaks free while any streak
		// that can reach the flight recorder has stamped first.
		h.streakBase = h.rec.Snapshot()
		h.streakStart = time.Now()
	}
	if h.consecFails > h.ConsecFailsPeak {
		h.ConsecFailsPeak = h.consecFails
	}
	if h.consecFails%DefaultWatchdogThreshold == 0 {
		h.LivelockEscalations++
		h.bo.Escalate()
		h.d.flightEscalate(h)
	}
	h.bo.Spin()
}

// noteSuccess resets the watchdog streak and the backoff window after a
// completed operation. A streak that escalated leaves a recover record in
// the flight ring on its way out.
func (h *Handle) noteSuccess() {
	if h.escalated {
		h.d.flightRecover(h)
	}
	h.consecFails = 0
	h.bo.Reset()
}

// takeAllocErr returns and clears a pending allocation failure.
func (h *Handle) takeAllocErr() error {
	err := h.allocErr
	h.allocErr = nil
	return err
}

// hintPublishInterval is how many interior transitions a handle completes
// per global hint publish. 8 keeps worst-case hint staleness well under one
// node's slot count while eliminating ~7/8 of the CASes on the hint line.
const hintPublishInterval = 8

// publish is the throttled hint update for interior transitions on side s;
// see the hintPub field comment. The node's slot hint rides the same
// throttle: an atomic store per operation costs a full fence on the hot
// path, while a hint at most hintPublishInterval slots stale only costs a
// scan walk over slots that share the edge's cache line. Structural
// transitions (append, straddle, remove) bypass this and store both hints
// unconditionally.
func (h *Handle) publish(s obs.Side, hintW uint64, n *node, slotIdx int) {
	h.hintPub[s]++
	if h.hintPub[s] >= hintPublishInterval {
		h.hintPub[s] = 0
		h.rec.Inc(obs.CtrHintPublish)
		n.slotHint[s].Store(int64(slotIdx))
		h.d.hint[s].set(hintW, n)
	}
}

// Register allocates a Handle. It panics once MaxThreads handles exist.
func (d *Deque) Register() *Handle {
	tid := int(d.nextTID.Add(1)) - 1
	if tid >= d.cfg.MaxThreads {
		panic(fmt.Sprintf("core: more than MaxThreads=%d handles", d.cfg.MaxThreads))
	}
	h := &Handle{d: d, tid: tid, rec: d.obsReg.NewRec(), lat: d.latReg.NewRec()}
	// Arm the latency sampler (see Handle.opTick): off, it parks at
	// MaxUint64 and never fires.
	h.opTick = math.MaxUint64
	if obs.Enabled && d.latSample != 0 {
		h.latGap = obs.NewLatGap(uint64(tid)*0x9e3779b97f4a7c15 + 1)
		h.opTick = h.latGap.Next(d.latSample)
	}
	h.bo.Init(backoff.DefaultMinSpins, backoff.DefaultMaxSpins, uint64(tid)*0x9e3779b97f4a7c15+1)
	h.hp = d.hazDom.Register()
	return h
}
