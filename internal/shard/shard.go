// Package shard is the routing brain of the deque pool (the public
// deque.Pool[T]): which shard a push lands on, which shard a pop drains,
// and — when a consumer's home shard is empty — which victim it steals
// from and in what order.
//
// The pool itself composes N independent deques in the root package (an
// internal package cannot wrap the root without a cycle); everything here
// is deliberately structure-free so it can be tested exhaustively without
// spinning up deques: a Router is a few words of per-caller state plus a
// load callback, and StealOrder is a sort over a load snapshot.
//
// # Why double-ended stealing works
//
// A pop that finds its home shard empty takes from the *opposite end* of
// the most-loaded victim: a left pop steals with a right pop and vice
// versa. The OFDeque's ends are independent — opposite-end operations
// touch disjoint slots (paper §II-A3) — so a thief draining the victim's
// far end does not contend with the victim's own consumers hammering its
// hot end. This is the same asymmetry work-stealing deques exploit
// (owner works one end, thieves the other), available here for free
// because every shard is already double-ended.
package shard

import "fmt"

// Policy selects how a Router maps operations to shards.
type Policy uint8

const (
	// RoundRobin spreads operations evenly: each caller cycles its pushes,
	// and separately its pops, through the shards from a per-caller
	// staggered start. Best for symmetric
	// producer/consumer fleets with no key structure.
	RoundRobin Policy = iota
	// KeyAffinity routes by FNV-1a hash of the operation key: equal keys
	// always reach the same shard, so per-key FIFO/LIFO order is
	// preserved within that shard's end discipline.
	KeyAffinity
	// LeastLoaded routes pushes to the least-loaded shard and pops to the
	// most-loaded one, using the pool's cheap per-shard load estimates.
	LeastLoaded
)

// ParsePolicy maps the flag spellings used by cmd/dequed and cmd/dqload
// ("rr"/"round-robin", "key"/"affinity", "least"/"least-loaded") to a
// Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "rr", "round-robin", "roundrobin":
		return RoundRobin, nil
	case "key", "affinity", "key-affinity":
		return KeyAffinity, nil
	case "least", "least-loaded", "leastloaded":
		return LeastLoaded, nil
	}
	return 0, fmt.Errorf("shard: unknown routing policy %q (want rr, key, or least)", s)
}

// String returns the canonical flag spelling.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "rr"
	case KeyAffinity:
		return "key"
	case LeastLoaded:
		return "least"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// fnv-1a over the 8 little-endian bytes of the key.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash is the FNV-1a hash KeyAffinity routes by, exported so clients and
// tests can predict shard placement.
func Hash(key uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= key & 0xFF
		h *= fnvPrime
		key >>= 8
	}
	return h
}

// Router is one caller's routing state. It is NOT safe for concurrent
// use — exactly like a deque Handle, each PoolHandle owns one. The only
// mutable state is the pair of round-robin cursors; KeyAffinity and
// LeastLoaded routers are pure.
//
// Pushes and pops advance separate cursors, so whatever the interleaving
// the k-th pop targets the shard the k-th push filled. A shared cursor
// would make a caller that alternates push and pop on an even shard count
// push only to shards of one parity and pop only from the other: every
// pop would pay a steal sweep, and the pushes would cover half the shards.
type Router struct {
	policy   Policy
	n        int
	nextPush uint32
	nextPop  uint32
}

// NewRouter returns a router over n shards. offset staggers the
// round-robin start so a fleet of handles does not march in lockstep on
// the same shard (pass the handle's registration index).
func NewRouter(p Policy, n int, offset uint32) Router {
	if n <= 0 {
		panic(fmt.Sprintf("shard: NewRouter with %d shards", n))
	}
	start := offset % uint32(n)
	return Router{policy: p, n: n, nextPush: start, nextPop: start}
}

// cycle returns the shard under *cursor and advances it.
func (r *Router) cycle(cursor *uint32) int {
	i := int(*cursor) % r.n
	*cursor++
	return i
}

// Shards returns the shard count the router was built for.
func (r *Router) Shards() int { return r.n }

// Policy returns the routing policy.
func (r *Router) Policy() Policy { return r.policy }

// Push picks the shard for a push. load is consulted only by LeastLoaded
// and must be a cheap estimate (the pool's per-shard counters, not a
// chain walk).
func (r *Router) Push(key uint64, load func(int) int) int {
	switch r.policy {
	case KeyAffinity:
		return int(Hash(key) % uint64(r.n))
	case LeastLoaded:
		best, bestLoad := 0, load(0)
		for i := 1; i < r.n; i++ {
			if l := load(i); l < bestLoad {
				best, bestLoad = i, l
			}
		}
		return best
	default: // RoundRobin
		return r.cycle(&r.nextPush)
	}
}

// Pop picks the home shard for a pop. KeyAffinity and RoundRobin mirror
// Push (equal keys pop where they pushed; round-robin drains evenly, on
// its own cursor);
// LeastLoaded inverts to the most-loaded shard so consumers drain the
// deepest backlog first.
func (r *Router) Pop(key uint64, load func(int) int) int {
	switch r.policy {
	case KeyAffinity:
		return int(Hash(key) % uint64(r.n))
	case LeastLoaded:
		best, bestLoad := 0, load(0)
		for i := 1; i < r.n; i++ {
			if l := load(i); l > bestLoad {
				best, bestLoad = i, l
			}
		}
		return best
	default: // RoundRobin
		return r.cycle(&r.nextPop)
	}
}

// StealOrder fills dst with the indices of every shard except home whose
// entry in loads is positive, ordered most-loaded first — the order a
// stealing pop should try victims in. loads is a point-in-time snapshot
// taken by the caller (a live callback would give the sort an unstable
// comparator). dst is reused when large enough (pass the caller's scratch
// slice); the returned slice aliases it. Estimates may be stale: a listed
// victim can turn out empty, and a zero-estimate shard can hold values —
// callers that must certify global emptiness fall back to trying every
// shard.
//
// It runs on every steal sweep, so it must not allocate; sort.Slice's
// closure and swapper would escape to the heap, so it insertion-sorts
// the at most Shards candidates. Candidates are appended in index order
// and the sort is stable, so ties stay index-ordered.
func StealOrder(dst []int, loads []int, home int) []int {
	dst = dst[:0]
	for i, l := range loads {
		if i != home && l > 0 {
			dst = append(dst, i)
		}
	}
	for a := 1; a < len(dst); a++ {
		x := dst[a]
		b := a
		for ; b > 0 && loads[dst[b-1]] < loads[x]; b-- {
			dst[b] = dst[b-1]
		}
		dst[b] = x
	}
	return dst
}
