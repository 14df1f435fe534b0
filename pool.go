package deque

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/pad"
	"repro/internal/shard"
)

// stealAttempts bounds each steal leg: a victim shard gets this many retry
// cycles (Handle.TryPop*) before the leg gives up with ErrContended. A
// bounded leg keeps one hot victim from capturing the thief forever; the
// certify loop decides whether the failure means "empty" or "retry
// later".
const stealAttempts = 64

// Pool is a sharded deque: N independent Deque[T] shards behind a
// routing layer, for workloads where a single structure's two ends are
// not enough parallelism. Routing is pluggable (RouteRoundRobin,
// RouteKeyAffinity, RouteLeastLoaded), and a pop that finds its home
// shard empty can steal from the opposite end of the most-loaded shard
// (WithStealing, on by default) — the double-ended structure makes the
// steal cheap, because a thief on the far end does not contend with the
// victim shard's own consumers on its hot end.
//
// # What a Pool guarantees
//
// Each shard is a full Deque[T]: unbounded, obstruction-free, per-shard
// linearizable. The pool as a whole deliberately is NOT one linearizable
// deque — it is a partitioned structure with relaxed global ordering
// (see DESIGN.md §9). What survives composition:
//
//   - Conservation: every pushed value is popped exactly once, across
//     any mix of routing, stealing, and ErrFull backpressure.
//   - Per-key order under RouteKeyAffinity: equal keys share a shard, so
//     two values pushed under one key from one handle retain that
//     shard's deque order — until a steal drains the shard's far end.
//   - Emptiness: a pop (with stealing on) returns ok=false only after
//     finding every shard empty at the moment it tried it.
//
// Like Deque[T], a Pool is used through per-goroutine handles.
type Pool[T any] struct {
	shards []*Deque[T]
	loads  []poolLoad // cheap per-shard resident estimates, for routing
	policy RoutePolicy
	steal  bool
	nextRR atomic.Uint32 // staggers each handle's round-robin start

	// latReg holds the pool-level latency recorders (pool_op: whole
	// routed operations including steal fallback; steal_sweep: the sweep
	// loops themselves). Per-shard op classes live in the shards' own
	// registries; LatencySnapshot merges both exactly.
	latReg obs.LatRegistry
}

// poolLoad is one shard's approximate resident count, alone on its cache
// line so shards' counters do not false-share.
type poolLoad struct {
	n atomic.Int64
	_ [pad.CacheLine - 8]byte
}

// RoutePolicy selects how pool operations map to shards; see the Route*
// constants. The zero value is RouteRoundRobin.
type RoutePolicy = shard.Policy

const (
	// RouteRoundRobin spreads operations evenly; each handle cycles
	// through the shards from a staggered start.
	RouteRoundRobin = shard.RoundRobin
	// RouteKeyAffinity routes by hash of the per-operation key: equal
	// keys always reach the same shard.
	RouteKeyAffinity = shard.KeyAffinity
	// RouteLeastLoaded pushes to the least-loaded shard and pops from the
	// most-loaded one, by the pool's per-shard load estimates.
	RouteLeastLoaded = shard.LeastLoaded
)

// ParseRouting maps the flag spellings "rr", "key", and "least" (and
// their long forms) to a RoutePolicy, wrapping ErrBadOption on unknown
// input — what cmd/dequed and cmd/dqload parse their -route flags with.
func ParseRouting(s string) (RoutePolicy, error) {
	p, err := shard.ParsePolicy(s)
	if err != nil {
		return 0, fmt.Errorf("%w: unknown routing policy %q (want rr, key, or least)", ErrBadOption, s)
	}
	return p, nil
}

// poolOptions collects pool construction parameters.
type poolOptions struct {
	policy    RoutePolicy
	steal     bool
	shardOpts []Option
}

// PoolOption configures NewPool.
type PoolOption func(*poolOptions)

// WithRouting sets the routing policy (default RouteRoundRobin).
func WithRouting(p RoutePolicy) PoolOption {
	return func(o *poolOptions) { o.policy = p }
}

// WithStealing toggles steal-on-empty rebalancing (default on): a pop
// whose home shard is empty pops from the opposite end of the most-loaded
// other shard instead of reporting empty.
func WithStealing(on bool) PoolOption {
	return func(o *poolOptions) { o.steal = on }
}

// WithShardOptions forwards deque options (WithNodeSize, WithCapacity,
// WithElimination, ...) to every shard. WithCapacity is per shard: a
// pool of n shards with capacity c holds at most n*c resident values,
// and a push returns ErrFull when its routed shard is full even if
// others have room (stealing rebalances pops, not pushes).
func WithShardOptions(opts ...Option) PoolOption {
	return func(o *poolOptions) { o.shardOpts = append(o.shardOpts, opts...) }
}

// NewPool returns a pool of shards independent deques. It panics on
// invalid configuration; use NewPoolChecked to receive the error.
func NewPool[T any](shards int, opts ...PoolOption) *Pool[T] {
	p, err := NewPoolChecked[T](shards, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// NewPoolChecked is NewPool returning invalid configuration as an error
// wrapping ErrBadOption instead of panicking.
func NewPoolChecked[T any](shards int, opts ...PoolOption) (*Pool[T], error) {
	if shards <= 0 {
		return nil, fmt.Errorf("%w: NewPool(%d) needs at least one shard", ErrBadOption, shards)
	}
	o := poolOptions{steal: true}
	for _, f := range opts {
		f(&o)
	}
	switch o.policy {
	case RouteRoundRobin, RouteKeyAffinity, RouteLeastLoaded:
	default:
		return nil, fmt.Errorf("%w: unknown routing policy %d", ErrBadOption, o.policy)
	}
	p := &Pool[T]{
		shards: make([]*Deque[T], shards),
		loads:  make([]poolLoad, shards),
		policy: o.policy,
		steal:  o.steal,
	}
	for i := range p.shards {
		d, err := NewChecked[T](o.shardOpts...)
		if err != nil {
			return nil, err
		}
		p.shards[i] = d
	}
	return p, nil
}

// Shards returns the shard count.
func (p *Pool[T]) Shards() int { return len(p.shards) }

// Shard returns shard i — an escape hatch for tests and tools. Values
// pushed or popped directly on a shard bypass the pool's load estimates;
// the estimates are heuristics, so routing stays correct, merely less
// informed.
func (p *Pool[T]) Shard(i int) *Deque[T] { return p.shards[i] }

// Len returns the pool's resident-count estimate: the sum of the padded
// per-shard load counters routing consults. It is O(shards) — a Len that
// walked every chain was far too heavy to offer as the default on a
// structure meant for hot paths. The estimate is maintained only by pool
// (and relaxed) handle operations, so it equals the true count in
// quiescence as long as all traffic used those handles; values moved
// directly through Shard() bypass it. Under concurrency it may
// transiently disagree with LenExact. The wire protocol's OpLen answers
// with LenExact, not this.
func (p *Pool[T]) Len() int {
	var n int64
	for i := range p.loads {
		n += p.loads[i].n.Load()
	}
	if n < 0 {
		return 0
	}
	return int(n)
}

// LenExact returns the total number of stored values by walking every
// shard's chain — O(shards × n), exact only in quiescence (like
// Deque.Len). Use it for drain verification and protocol-level length
// queries; use Len on hot paths.
func (p *Pool[T]) LenExact() int {
	n := 0
	for _, d := range p.shards {
		n += d.Len()
	}
	return n
}

// Metrics returns the pool-merged observability snapshot: every shard's
// Metrics() accumulated with Metrics.Add, so counters are sums and the
// capacity gauges report per-shard limits (see obs.Metrics.Add). The
// push/pop identities (pushes = L1+L3+L6+elim, pops = L2+L4+elim) hold
// on the merged snapshot exactly as they do per shard. The Latency digest
// is rebuilt from the exact merged histograms (LatencySnapshot) rather
// than the shard digests, so its quantiles keep full bucket resolution.
func (p *Pool[T]) Metrics() Metrics {
	var m Metrics
	for _, d := range p.shards {
		m.Add(d.Metrics())
	}
	m.Latency = p.LatencySnapshot().Summaries()
	return m
}

// LatencySnapshot returns the exact merged latency histograms of the
// pool: every shard's per-op classes plus the pool-level pool_op and
// steal_sweep classes, bucket-exact (no digest approximation).
func (p *Pool[T]) LatencySnapshot() *LatSnapshotSet {
	set := p.latReg.Merge()
	for _, d := range p.shards {
		set.Merge(d.LatencySnapshot())
	}
	return set
}

// FlightRecords returns every shard's retained flight records merged into
// one timeline, oldest first.
func (p *Pool[T]) FlightRecords() []FlightRecord {
	var recs []FlightRecord
	for _, d := range p.shards {
		recs = append(recs, d.FlightRecords()...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	return recs
}

// FlightTotal returns the total flight records ever written across all
// shards, including ones the rings have overwritten.
func (p *Pool[T]) FlightTotal() uint64 {
	var n uint64
	for _, d := range p.shards {
		n += d.FlightTotal()
	}
	return n
}

// SetFlightDump arms automatic flight-recorder dumps on every shard; see
// Deque.SetFlightDump for the contract.
func (p *Pool[T]) SetFlightDump(w io.Writer, minInterval time.Duration) {
	for _, d := range p.shards {
		d.SetFlightDump(w, minInterval)
	}
}

// Register returns a PoolHandle for the calling goroutine: one deque
// handle per shard plus private routing state. Handles are cheap and
// long-lived; a server should reuse them across connections (each shard
// admits at most WithMaxThreads handles, ever).
func (p *Pool[T]) Register() *PoolHandle[T] {
	start := p.nextRR.Add(1) - 1
	h := &PoolHandle[T]{
		p:      p,
		hs:     make([]*Handle[T], len(p.shards)),
		router: shard.NewRouter(p.policy, len(p.shards), start),
		lat:    p.latReg.NewRec(),
	}
	h.bo.Init(backoff.DefaultMinSpins, backoff.DefaultMaxSpins,
		uint64(start)*0x9e3779b97f4a7c15+1)
	h.latGap = obs.NewLatGap(uint64(start)*0x9e3779b97f4a7c15 + 2)
	h.latTick = h.latGap.Next(obs.DefaultLatSample)
	for i, d := range p.shards {
		h.hs[i] = d.Register()
	}
	return h
}

// PoolHandle is a per-goroutine accessor to a Pool. Not safe for
// concurrent use; register one per goroutine (or per connection) and
// reuse it.
type PoolHandle[T any] struct {
	p      *Pool[T]
	hs     []*Handle[T]
	router shard.Router
	order  []int           // steal-order scratch
	snap   []int           // load-snapshot scratch
	bo     backoff.Backoff // jittered wait between uncertified sweeps

	lat     *obs.LatRec // pool-level latency histograms (pool_op, steal_sweep)
	latTick uint64      // countdown to the next sampled pool_op
	latGap  obs.LatGap  // rearms latTick

	// resweeps counts certify sweeps that ended blocked or contended and
	// were retried after a backoff wait — steals here, and the Relaxed and
	// DEPQ pops that run on this handle. Package-private so tests can pin
	// the backoff-between-sweeps behavior.
	resweeps uint64

	// stealProbe is a test seam: when non-nil, steal consults it before
	// each leg's real pop, and an ErrContended return stands in for a Try
	// pop that exhausted its attempt budget (the shard is then skipped this
	// sweep). Always nil outside tests.
	stealProbe func(shard int) error
}

// load is the router's cheap per-shard estimate callback.
func (h *PoolHandle[T]) load(i int) int { return int(h.p.loads[i].n.Load()) }

// Home returns the shard the next push under key would route to —
// exported so tools can predict placement. For RouteRoundRobin the
// answer consumes a routing step (the push cursor advances).
func (h *PoolHandle[T]) Home(key uint64) int { return h.router.Push(key, h.load) }

// note records a successful push (+n) or pop (-n) on shard i.
func (h *PoolHandle[T]) note(i int, n int64) { h.p.loads[i].n.Add(n) }

// latStart opens a sampled pool_op measurement: one pool operation in
// DefaultLatSample per handle, on average, is timed end to end — routing,
// the shard op, and any steal fallback. Zero time means not sampled.
func (h *PoolHandle[T]) latStart() (t time.Time) {
	if !obs.Enabled {
		return
	}
	if h.latTick--; h.latTick == 0 {
		h.latTick = h.latGap.Next(obs.DefaultLatSample)
		t = time.Now()
	}
	return
}

// latNow is the always-record variant for steal sweeps (rare, and the
// tail is the point).
func (h *PoolHandle[T]) latNow() (t time.Time) {
	if obs.Enabled {
		t = time.Now()
	}
	return
}

// latEnd records the elapsed time into class c; zero start is a no-op.
func (h *PoolHandle[T]) latEnd(c obs.LatClass, t time.Time) {
	if !obs.Enabled || t.IsZero() {
		return
	}
	h.lat.Record(c, uint64(time.Since(t)))
}

// push is the body of every single-value pool push: route, push on the
// home shard (honoring ctx when non-nil), and account the landed value.
func (h *PoolHandle[T]) push(ctx context.Context, key uint64, v T, left bool) error {
	lt := h.latStart()
	defer h.latEnd(obs.LatPoolOp, lt)
	i := h.router.Push(key, h.load)
	err := h.hs[i].push(ctx, v, left, 0)
	if err == nil {
		h.note(i, 1)
	}
	return err
}

// PushLeft pushes v at the left end of the routed shard; ErrFull when
// that shard's capacity is exhausted (nothing pushed).
func (h *PoolHandle[T]) PushLeft(key uint64, v T) error { return h.push(nil, key, v, true) }

// PushRight mirrors PushLeft on the right end.
func (h *PoolHandle[T]) PushRight(key uint64, v T) error { return h.push(nil, key, v, false) }

// PushLeftCtx is PushLeft, aborting with ctx.Err() once ctx is
// cancelled; a non-nil error means nothing was pushed.
func (h *PoolHandle[T]) PushLeftCtx(ctx context.Context, key uint64, v T) error {
	return h.push(ctx, key, v, true)
}

// PushRightCtx mirrors PushLeftCtx.
func (h *PoolHandle[T]) PushRightCtx(ctx context.Context, key uint64, v T) error {
	return h.push(ctx, key, v, false)
}

// legResult is one leg's outcome in a certify sweep.
type legResult uint8

const (
	legEmpty   legResult = iota // the leg's shard was observed empty
	legBlocked                  // bound- or window-blocked, or contended: emptiness unknown
	legDone                     // the leg took a value or hit an error: the operation is over
)

// inOrder is the identity sweep order.
func inOrder(i int) int { return i }

// certify is the probe-then-certify loop of every multi-shard pop: the
// pool's steal, and the Relaxed and DEPQ pops. Each sweep tries the
// probe target (probe is called once per sweep; -1 means none), then
// at(0), ..., at(n-1), skipping the probe. A leg returning legDone ends
// the loop. A sweep whose every leg came up empty certifies emptiness:
// the documented contract is that ok=false means every shard came up
// empty at the moment it was tried, and a blocked or contended shard was
// never observed empty. Such a sweep is retried, but only after a
// jittered exponential backoff wait (h.bo): under an all-shards-blocked
// storm the caller cools off instead of hammering full sweeps back to
// back, which both bounds the cache-line traffic it adds and gives the
// shards' own consumers room to drain.
//
// ctx (nil for none) is consulted only between sweeps, as a non-blocking
// receive on its Done channel, never inside a leg, so the returned error is non-nil only when ctx expired while
// emptiness was still uncertifiable. The legs report what they took
// through the variables their closures capture.
func (h *PoolHandle[T]) certify(ctx context.Context, n int, probe func() int,
	at func(i int) int, leg func(j int) legResult) error {
	var done <-chan struct{} // hoisted: on go1.24 ctx.Err() takes a mutex
	if ctx != nil {
		done = ctx.Done()
	}
	h.bo.Reset()
	for {
		p, r := probe(), legEmpty
		if p >= 0 {
			r = leg(p)
		}
		blocked := r == legBlocked
		for i := 0; i < n && r != legDone; i++ {
			if j := at(i); j != p {
				r = leg(j)
				blocked = blocked || r == legBlocked
			}
		}
		if r == legDone || !blocked {
			return nil // a value (or an error) was taken, or every leg certified empty
		}
		select {
		case <-done: // never ready when nil
			return ctx.Err()
		default:
		}
		h.resweeps++
		h.bo.Spin()
	}
}

// stealOrder refreshes h.order from a fresh load snapshot with every
// shard except home, most-loaded first, and returns the first victim (-1
// when there is none). Estimates may be stale, so the zero-estimate
// shards follow in index order: only a sweep over all of them certifies
// emptiness.
func (h *PoolHandle[T]) stealOrder(home int) int {
	n := len(h.hs)
	if cap(h.snap) < n {
		h.snap = make([]int, n)
	}
	snap := h.snap[:n]
	for i := range snap {
		snap[i] = h.load(i)
	}
	h.order = shard.StealOrder(h.order, snap, home)
	for j, l := range snap {
		if j != home && l <= 0 {
			h.order = append(h.order, j)
		}
	}
	if len(h.order) == 0 {
		return -1
	}
	return h.order[0]
}

// stealCtx tries every other shard in most-loaded-first order, popping
// from the side opposite the request (a left pop steals with right pops
// and vice versa) so thieves avoid the victims' hot ends. The sweep runs
// under certify, which consults ctx (nil for none) between sweeps.
//
// Each leg is a bounded Try pop (stealAttempts retry cycles), so one hot
// victim cannot capture the thief indefinitely. A leg that spends its
// whole budget (ErrContended) leaves that shard's emptiness unknown, so
// certify retries the sweep after a backoff wait.
func (h *PoolHandle[T]) stealCtx(ctx context.Context, home int, left bool) (v T, ok bool, err error) {
	// Steals are the pool's rare, tail-shaped path: time every one, from
	// first sweep to value / certified-empty / ctx abort.
	st := h.latNow()
	defer h.latEnd(obs.LatStealSweep, st)
	err = h.certify(ctx, len(h.hs)-1, func() int { return h.stealOrder(home) },
		func(i int) int { return h.order[i] },
		func(j int) legResult {
			if h.stealProbe != nil && h.stealProbe(j) != nil {
				return legBlocked
			}
			var terr error
			v, ok, terr = h.hs[j].pop(nil, !left, stealAttempts)
			switch {
			case terr != nil:
				return legBlocked // budget spent racing: emptiness unknown
			case !ok:
				return legEmpty
			}
			h.note(j, -1)
			return legDone
		})
	return v, ok, err
}

// pop is the body of every single-value pool pop: route, pop the home
// shard (honoring ctx when non-nil), and steal when it came up empty and
// stealing is on.
func (h *PoolHandle[T]) pop(ctx context.Context, key uint64, left bool) (v T, ok bool, err error) {
	lt := h.latStart()
	defer h.latEnd(obs.LatPoolOp, lt)
	i := h.router.Pop(key, h.load)
	if v, ok, err = h.hs[i].pop(ctx, left, 0); err != nil || ok {
		if ok {
			h.note(i, -1)
		}
		return v, ok, err
	}
	if !h.p.steal {
		return v, false, nil
	}
	return h.stealCtx(ctx, i, left)
}

// PopLeft pops from the left end of the routed shard, stealing from the
// right end of the most-loaded other shard when the home shard is empty
// (if stealing is enabled). ok is false only after every shard came up
// empty.
func (h *PoolHandle[T]) PopLeft(key uint64) (v T, ok bool) {
	v, ok, _ = h.pop(nil, key, true)
	return v, ok
}

// PopRight mirrors PopLeft, stealing from victims' left ends.
func (h *PoolHandle[T]) PopRight(key uint64) (v T, ok bool) {
	v, ok, _ = h.pop(nil, key, false)
	return v, ok
}

// PopLeftCtx is PopLeft, aborting with ctx.Err() once ctx is cancelled.
// The home-shard pop honors ctx; steal legs are bounded pops, with ctx
// consulted between contended sweeps.
func (h *PoolHandle[T]) PopLeftCtx(ctx context.Context, key uint64) (v T, ok bool, err error) {
	return h.pop(ctx, key, true)
}

// PopRightCtx mirrors PopLeftCtx.
func (h *PoolHandle[T]) PopRightCtx(ctx context.Context, key uint64) (v T, ok bool, err error) {
	return h.pop(ctx, key, false)
}

// pushN is the body of PushLeftN/PushRightN.
func (h *PoolHandle[T]) pushN(key uint64, vs []T, left bool) (int, error) {
	lt := h.latStart()
	defer h.latEnd(obs.LatPoolOp, lt)
	i := h.router.Push(key, h.load)
	n, err := h.hs[i].pushN(vs, left)
	if n > 0 {
		h.note(i, int64(n))
	}
	return n, err
}

// PushLeftN pushes vs in order at the left end of one routed shard (a
// batch never splits across shards, preserving its contiguity there). On
// ErrFull the returned n reports the landed prefix: vs[:n] stays pushed,
// vs[n:] had no effect.
func (h *PoolHandle[T]) PushLeftN(key uint64, vs []T) (int, error) { return h.pushN(key, vs, true) }

// PushRightN mirrors PushLeftN on the right end.
func (h *PoolHandle[T]) PushRightN(key uint64, vs []T) (int, error) { return h.pushN(key, vs, false) }

// stealN drains up to len(dst) values from the first non-empty victim's
// opposite end. One victim per call: a stolen batch is contiguous in its
// source shard. Batch legs never block, so certify makes one sweep.
func (h *PoolHandle[T]) stealN(home int, left bool, dst []T) (got int) {
	st := h.latNow()
	defer h.latEnd(obs.LatStealSweep, st)
	h.certify(nil, len(h.hs)-1, func() int { return h.stealOrder(home) },
		func(i int) int { return h.order[i] },
		func(j int) legResult {
			if got = h.hs[j].popN(dst, !left); got == 0 {
				return legEmpty
			}
			h.note(j, -int64(got))
			return legDone
		})
	return got
}

// popN is the body of PopLeftN/PopRightN.
func (h *PoolHandle[T]) popN(key uint64, dst []T, left bool) int {
	if len(dst) == 0 {
		return 0
	}
	lt := h.latStart()
	defer h.latEnd(obs.LatPoolOp, lt)
	i := h.router.Pop(key, h.load)
	if n := h.hs[i].popN(dst, left); n > 0 {
		h.note(i, -int64(n))
		return n
	}
	if !h.p.steal {
		return 0
	}
	return h.stealN(i, left, dst)
}

// PopLeftN pops up to len(dst) values from the left end of the routed
// shard into dst in pop order, returning the count n: dst[:n] holds the
// values, dst[n:] is untouched. When the home shard yields nothing and
// stealing is on, the batch drains the opposite end of the most-loaded
// other shard instead.
func (h *PoolHandle[T]) PopLeftN(key uint64, dst []T) int { return h.popN(key, dst, true) }

// PopRightN mirrors PopLeftN, stealing from victims' left ends.
func (h *PoolHandle[T]) PopRightN(key uint64, dst []T) int { return h.popN(key, dst, false) }

// Flush returns every per-shard handle's cached slab capacity to the
// shared freelists and drains each shard handle's deferred reclamation
// work; call it when the goroutine (or connection) is done with the handle
// for good, or before parking it. The handle itself stays reusable.
func (h *PoolHandle[T]) Flush() {
	for _, sh := range h.hs {
		sh.Flush()
	}
}
