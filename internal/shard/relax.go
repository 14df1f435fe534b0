package shard

import (
	"sync/atomic"

	"repro/internal/pad"
	"repro/internal/xrand"
)

// This file is the accounting brain shared by the two relaxed pool
// front-ends (the public deque.Relaxed[T] and deque.DEPQ[T]): one table
// of per-shard push and pop stamps with its residency scans, and the
// d-choice sampler that picks which shards an operation even looks at.
// Relaxed enforces a rank-error bound over the table with the segment
// windows below; DEPQ treats each shard as a priority band and enforces
// an inversion bound with the band reservation in band.go.
//
// # The window argument, in one paragraph
//
// Treat the k shards as lanes of one logical FIFO. A pop's rank error is
// the number of resident values older than the one it returned; values
// age in push order, so the error popping lane j's q-th value is bounded
// by how many older values the other lanes still hold. Two windows of
// length L control that: (1) no lane's push count may exceed the
// smallest push count by more than L — so at most L values of any other
// lane can be older than a given resident value beyond the lane skews —
// and (2) no lane's pop count may run more than L ahead of the smallest
// pop count over lanes that still hold values — so no lane's backlog is
// ignored for more than L pops. Together they cap the true rank error at
// O(k·L); Relaxed picks L = bound/(4·(k-1)), spending a factor two of
// headroom on the transient slack concurrent reservations introduce
// (in-flight increments and the push-side cached floor are both
// instantaneous snapshots, not fenced barriers). DESIGN.md §11 spells
// the argument out.

// stampCtr is one shard's operation counter, alone on its cache line so
// reservations on different shards do not false-share.
type stampCtr struct {
	n atomic.Int64
	_ [pad.CacheLine - 8]byte
}

// Stamps tracks per-shard push and pop sequence counters for a relaxed
// pool front-end. All methods are safe for concurrent use; counters are
// monotone except for the transient dips of an undone reservation.
type Stamps struct {
	push []stampCtr
	pop  []stampCtr
	// pushFloor caches a lower bound on the minimum push count. Push
	// counters only grow (undo dips aside), so a previously computed
	// minimum stays a valid floor forever: reservations accept against
	// the cache and fall back to a real O(k) scan only when it fails.
	// The pop window has no such cache — a shard emptying changes which
	// counters are even eligible, so a cached pop floor can sit *above*
	// the true one. Pop reservations scan instead; the pop path already
	// pays an O(k) scan for the rank estimate, so this costs nothing
	// asymptotically.
	pushFloor atomic.Int64
	_         [pad.CacheLine - 8]byte
}

// NewStamps returns stamp counters for n shards.
func NewStamps(n int) *Stamps {
	return &Stamps{push: make([]stampCtr, n), pop: make([]stampCtr, n)}
}

// PushCount returns shard i's push stamp.
func (s *Stamps) PushCount(i int) int64 { return s.push[i].n.Load() }

// PopCount returns shard i's pop stamp.
func (s *Stamps) PopCount(i int) int64 { return s.pop[i].n.Load() }

// Resident returns shard i's stamp-derived resident estimate (pushes
// minus pops; transiently negative under in-flight reservations).
func (s *Stamps) Resident(i int) int64 { return s.push[i].n.Load() - s.pop[i].n.Load() }

// AddPush adjusts shard i's push stamp by n: DEPQ reserves a push with
// AddPush(b, 1) before the push executes, and Relaxed returns the unused
// tail of a partially-landed batch (negative n).
func (s *Stamps) AddPush(i int, n int64) { s.push[i].n.Add(n) }

// UndoPush returns an unused push reservation (the push itself failed,
// e.g. ErrFull).
func (s *Stamps) UndoPush(i int) { s.push[i].n.Add(-1) }

// AddPop adjusts shard i's pop stamp by n (negative to return the unused
// tail of a batch reservation).
func (s *Stamps) AddPop(i int, n int64) { s.pop[i].n.Add(n) }

// UndoPop returns an unused pop reservation (the shard turned out empty).
func (s *Stamps) UndoPop(i int) { s.pop[i].n.Add(-1) }

// minPopResident returns the resident shard with the smallest pop count,
// and that count; ok is false when no shard looks resident.
func (s *Stamps) minPopResident() (shard int, pops int64, ok bool) {
	for j := range s.pop {
		po := s.pop[j].n.Load()
		if s.push[j].n.Load()-po <= 0 {
			continue // empty (or transiently over-reserved): not owed pops
		}
		if !ok || po < pops {
			shard, pops, ok = j, po, true
		}
	}
	return shard, pops, ok
}

// ArgMinPopResident returns the resident shard with the smallest pop
// count — the lagging backlog a window-rejected pop should drain. ok is
// false when no shard looks resident.
func (s *Stamps) ArgMinPopResident() (int, bool) {
	j, _, ok := s.minPopResident()
	return j, ok
}

// EdgeResident returns the resident shard nearest one end of the index
// range — the lowest when low is set, else the highest — or -1 when
// every shard looks empty. DEPQ anchors a PopMin (low) or PopMax window
// there.
func (s *Stamps) EdgeResident(low bool) int {
	k := len(s.push)
	for i := 0; i < k; i++ {
		j := i
		if !low {
			j = k - 1 - i
		}
		if s.Resident(j) > 0 {
			return j
		}
	}
	return -1
}

// ReservePush claims the next push stamp on shard i, enforcing the push
// window: the claimed index must stay within window of the smallest push
// count across all shards. ok=false means the claim was undone and the
// caller must route the push elsewhere (ArgMinPush always qualifies).
// window <= 0 disables enforcement. The returned seq is the shard-local
// 1-based sequence number of the reserved push.
func (s *Stamps) ReservePush(i int, window int64) (seq int64, ok bool) {
	return s.ReservePushN(i, 1, window)
}

// ReservePushN is ReservePush for a batch of n values routed as one unit:
// the window check applies to the batch head, so a batch may overshoot
// the window by at most n-1 (the bound degrades by the batch size; see
// deque.Relaxed's batch-op docs). seq is the sequence of the *last*
// value in the batch.
func (s *Stamps) ReservePushN(i int, n, window int64) (seq int64, ok bool) {
	q := s.push[i].n.Add(n)
	if window <= 0 {
		return q, true
	}
	head := q - n // highest stamp before this reservation
	if head <= s.pushFloor.Load()+window {
		return q, true
	}
	// Cached floor stale: recompute the true minimum and retry the check.
	min := s.push[0].n.Load()
	for j := 1; j < len(s.push); j++ {
		if v := s.push[j].n.Load(); v < min {
			min = v
		}
	}
	s.pushFloor.Store(min) // racing stores may publish a staler (lower)
	// floor; lower is conservative — it only causes extra rescans.
	if head <= min+window {
		return q, true
	}
	s.push[i].n.Add(-n)
	return 0, false
}

// ReservePop claims the next pop stamp on shard i, enforcing the pop
// window: the claimed index must stay within window of the smallest pop
// count over shards that still look resident — a shard with backlog must
// not be ignored for more than window pops. ok=false means the claim was
// undone; ArgMinPopResident names a shard that qualifies. window <= 0
// disables enforcement.
func (s *Stamps) ReservePop(i int, window int64) (seq int64, ok bool) {
	return s.ReservePopN(i, 1, window)
}

// ReservePopN is ReservePop for a batch drained as one unit; the window
// check applies to the batch head (same degradation as ReservePushN).
// seq is the sequence of the last pop in the batch.
func (s *Stamps) ReservePopN(i int, n, window int64) (seq int64, ok bool) {
	q := s.pop[i].n.Add(n)
	if window <= 0 {
		return q, true
	}
	// Nothing resident anywhere means there is no older backlog a pop
	// here could strand, so the window is trivially satisfied.
	if _, floor, ok := s.minPopResident(); !ok || q-n <= floor+window {
		return q, true
	}
	s.pop[i].n.Add(-n)
	return 0, false
}

// ArgMinPush returns the shard with the smallest push count — the shard
// a window-rejected push should route to.
func (s *Stamps) ArgMinPush() int {
	best, bestN := 0, s.push[0].n.Load()
	for j := 1; j < len(s.push); j++ {
		if v := s.push[j].n.Load(); v < bestN {
			best, bestN = j, v
		}
	}
	return best
}

// RankEstimate bounds the rank error of the pop holding shard j's pop
// sequence q: how many values resident on other shards are older than
// the popped one. Values age in push order and each shard is itself
// FIFO-ordered, so shard t holds at most min(pushes_t, q-1) - pops_t
// values that predate lane j's q-th — everything shard t pushed beyond
// lane j's depth q is younger by the window invariant. The estimate is
// an O(k) atomic-load scan over instantaneous counters: exact in
// quiescence, and under the windows it stays within the configured
// bound even mid-flight (the factor-two headroom in the segment length
// absorbs snapshot skew).
func (s *Stamps) RankEstimate(j int, q int64) int64 {
	var e int64
	for t := range s.push {
		if t == j {
			continue
		}
		pu := s.push[t].n.Load()
		if pu > q-1 {
			pu = q - 1
		}
		if d := pu - s.pop[t].n.Load(); d > 0 {
			e += d
		}
	}
	return e
}

// Sampler draws the d-choice samples for one front-end handle. Not safe
// for concurrent use — each handle owns one, seeded distinctly so a
// fleet of handles does not sample in lockstep.
type Sampler struct {
	rng *xrand.Xoshiro256
}

// NewSampler returns a sampler seeded with seed.
func NewSampler(seed uint64) Sampler {
	return Sampler{rng: xrand.NewXoshiro256(seed)}
}

// PickIn fills dst with d distinct indices drawn uniformly from [0, n)
// (reusing dst's capacity) and returns it. Relaxed samples over every
// shard; DEPQ samples inside a band window whose width changes per
// sweep. d >= n degenerates to all indices in order; a duplicate draw
// is resolved by walking to the next free index, which keeps PickIn
// allocation-free and O(d^2) — d is 2 in practice.
func (s *Sampler) PickIn(n, d int, dst []int) []int {
	dst = dst[:0]
	if d >= n {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	for len(dst) < d {
		c := s.rng.Intn(n)
	probe:
		for {
			for _, have := range dst {
				if have == c {
					c = (c + 1) % n
					continue probe
				}
			}
			break
		}
		dst = append(dst, c)
	}
	return dst
}
