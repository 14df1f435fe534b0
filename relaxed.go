package deque

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Relaxed is a semantically-relaxed front-end over a Pool: every push
// and pop samples d shards (d-choice, default 2) by the pool's cheap
// load estimates and operates on the best one, instead of routing
// through a policy. Giving up strict inter-shard ordering is what buys
// parallelism past a single deque's two ends — the d-CBO trade — and
// Relaxed makes the give-up *bounded and measured* rather than silent:
//
//   - WithRankBound(r) caps the worst-case rank error: a pop may return
//     a value at most r positions younger than the oldest resident one.
//     The bound is enforced by segment-window accounting over per-shard
//     sequence stamps (shard.Stamps; DESIGN.md §11): no shard's push or
//     pop counter may run more than a window L = r/(4·(shards-1)) ahead
//     of the laggard, so no value can be overtaken by more than r
//     others. Batch ops count as one reservation at their head, so a
//     batch of n degrades the bound by at most n-1.
//   - RelaxMetrics() reports the relaxation actually observed: max,
//     sum, and a histogram of each pop's rank-error estimate, computed
//     from the same stamps at pop time. The configured bound says what
//     may happen; the metric says what did.
//
// WithRelaxation(0) is strict passthrough: every operation delegates to
// the underlying PoolHandle (policy routing, stealing) and no stamps or
// estimates are touched — relaxation off costs nothing, which
// scripts/verify.sh's strict-Relaxed A/B gates at <= 2%.
//
// What survives from the pool contract: conservation (every pushed
// value pops exactly once), per-shard linearizability, and emptiness
// certification (ok=false only after every shard came up empty at the
// moment it was tried). What is deliberately weakened: global FIFO/LIFO
// order, by at most the configured bound.
type Relaxed[T any] struct {
	pool   *Pool[T]
	d      int   // sample width; 0 = strict passthrough
	bound  int64 // configured worst-case rank error; 0 = unbounded
	seg    int64 // enforcement window; 0 = no enforcement
	stamps *shard.Stamps
	reg    obs.DistRegistry // per-pop rank-error estimates
	seed   atomic.Uint64    // staggers per-handle sampler streams
}

// relaxedOptions collects Relaxed construction parameters.
type relaxedOptions struct {
	d        int
	dSet     bool
	bound    int
	boundSet bool
	poolOpts []PoolOption
}

// RelaxedOption configures NewRelaxed.
type RelaxedOption func(*relaxedOptions)

// WithRelaxation sets the d-choice sample width: how many shards each
// push/pop samples by load estimate before operating on the best one.
// Default 2 (clamped to the shard count); 0 means strict passthrough to
// the pool's configured routing. Must be between 0 and the shard count.
func WithRelaxation(d int) RelaxedOption {
	return func(o *relaxedOptions) { o.d, o.dSet = d, true }
}

// WithRankBound caps the worst-case rank error at r: no pop returns a
// value more than r positions out of age order. 0 (the default) leaves
// relaxation unbounded (load balance still keeps typical error near the
// shard count). Enforcement needs a window of at least one op per
// shard, so r must be at least 4*(shards-1) when shards > 1; on one
// shard every bound holds trivially.
func WithRankBound(r int) RelaxedOption {
	return func(o *relaxedOptions) { o.bound, o.boundSet = r, true }
}

// WithRelaxedPool forwards pool options (WithRouting, WithStealing,
// WithShardOptions...) to the underlying Pool. Routing and stealing only
// govern strict-mode (WithRelaxation(0)) operations; relaxed operations
// select shards themselves.
func WithRelaxedPool(opts ...PoolOption) RelaxedOption {
	return func(o *relaxedOptions) { o.poolOpts = append(o.poolOpts, opts...) }
}

// NewRelaxed returns a relaxed front-end over a fresh pool of shards
// deques. It panics on invalid configuration; use NewRelaxedChecked to
// receive the error.
func NewRelaxed[T any](shards int, opts ...RelaxedOption) *Relaxed[T] {
	r, err := NewRelaxedChecked[T](shards, opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// NewRelaxedChecked is NewRelaxed returning invalid configuration as an
// error wrapping ErrBadOption instead of panicking.
func NewRelaxedChecked[T any](shards int, opts ...RelaxedOption) (*Relaxed[T], error) {
	o := relaxedOptions{d: 2}
	for _, f := range opts {
		f(&o)
	}
	if !o.dSet && o.d > shards {
		o.d = shards // default d=2 degrades gracefully on a 1-shard pool
	}
	if o.d < 0 || o.d > shards {
		return nil, fmt.Errorf("%w: WithRelaxation(%d) must be between 0 and the shard count (%d)",
			ErrBadOption, o.d, shards)
	}
	if o.bound < 0 {
		return nil, fmt.Errorf("%w: WithRankBound(%d) must be >= 0", ErrBadOption, o.bound)
	}
	if o.bound > 0 && shards > 1 && o.bound < 4*(shards-1) {
		return nil, fmt.Errorf("%w: WithRankBound(%d) needs at least 4*(shards-1) = %d for %d shards (one window slot per shard)",
			ErrBadOption, o.bound, 4*(shards-1), shards)
	}
	pool, err := NewPoolChecked[T](shards, o.poolOpts...)
	if err != nil {
		return nil, err
	}
	r := &Relaxed[T]{
		pool:   pool,
		d:      o.d,
		bound:  int64(o.bound),
		stamps: shard.NewStamps(shards),
	}
	if o.bound > 0 && shards > 1 && o.d > 0 {
		// Half the analytic budget goes to the two windows (push and pop
		// skew each contribute up to (shards-1)*seg), half is headroom
		// for the snapshot slack of concurrent reservations.
		r.seg = r.bound / int64(4*(shards-1))
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Relaxed[T]) Shards() int { return r.pool.Shards() }

// Sample returns the d-choice sample width (0 = strict passthrough).
func (r *Relaxed[T]) Sample() int { return r.d }

// RankBound returns the configured worst-case rank-error bound (0 =
// unbounded).
func (r *Relaxed[T]) RankBound() int { return int(r.bound) }

// SegmentLen returns the enforcement window derived from the bound (0 =
// no enforcement) — exposed so tests and tools can verify accounting.
func (r *Relaxed[T]) SegmentLen() int { return int(r.seg) }

// Pool returns the underlying pool, for metrics and escape-hatch access.
// Values moved directly through pool or shard handles bypass the stamp
// accounting; the bound then holds relative to that traffic's shards.
func (r *Relaxed[T]) Pool() *Pool[T] { return r.pool }

// Len returns the pool's O(shards) resident estimate; LenExact walks.
func (r *Relaxed[T]) Len() int { return r.pool.Len() }

// LenExact returns the exact resident count (exact only in quiescence).
func (r *Relaxed[T]) LenExact() int { return r.pool.LenExact() }

// Metrics returns the pool-merged deque observability snapshot.
func (r *Relaxed[T]) Metrics() Metrics { return r.pool.Metrics() }

// LatencySnapshot returns the underlying pool's exact merged latency
// histograms (relaxed operations land in the shards' per-op classes;
// strict-mode passthrough also feeds pool_op/steal_sweep).
func (r *Relaxed[T]) LatencySnapshot() *LatSnapshotSet { return r.pool.LatencySnapshot() }

// FlightRecords returns the merged shard flight records, oldest first.
func (r *Relaxed[T]) FlightRecords() []FlightRecord { return r.pool.FlightRecords() }

// SetFlightDump arms automatic flight-recorder dumps on every shard; see
// Deque.SetFlightDump for the contract.
func (r *Relaxed[T]) SetFlightDump(w io.Writer, minInterval time.Duration) {
	r.pool.SetFlightDump(w, minInterval)
}

// RelaxMetrics returns the observed-relaxation snapshot — the measured
// answer to "how out-of-order did this structure actually run": max,
// sum, and histogram of the per-pop rank-error estimates, plus the
// configuration gauges. All zero under strict passthrough or the obsoff
// build tag (the estimate is skipped, the structure still relaxes).
func (r *Relaxed[T]) RelaxMetrics() RelaxMetrics {
	var m RelaxMetrics
	r.reg.MergeInto(&m.Pops, &m.RankSum, &m.RankMax, m.RankHist[:])
	m.Shards = uint64(r.pool.Shards())
	m.Sample = uint64(r.d)
	m.RankBound = uint64(r.bound)
	m.SegLen = uint64(r.seg)
	return m
}

// Register returns a RelaxedHandle for the calling goroutine. Handles
// are cheap and long-lived; reuse them (registration is permanent, as
// for Pool and Deque handles).
func (r *Relaxed[T]) Register() *RelaxedHandle[T] {
	h := &RelaxedHandle[T]{r: r, ph: r.pool.Register()}
	if r.d > 0 {
		h.rec = r.reg.NewRec()
		h.smp = shard.NewSampler(r.seed.Add(1)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	}
	return h
}

// RelaxedHandle is a per-goroutine accessor to a Relaxed front-end. The
// API is keyless — d-choice selection replaces routing, so there is
// nothing for a key to address. Not safe for concurrent use.
type RelaxedHandle[T any] struct {
	r     *Relaxed[T]
	ph    *PoolHandle[T]
	rec   *obs.DistRec
	smp   shard.Sampler
	picks []int // d-choice scratch
}

// strict reports whether this handle delegates to the pool unchanged.
func (h *RelaxedHandle[T]) strict() bool { return h.r.d == 0 }

// sample returns the least-loaded of d sampled shards, or with most set
// the most-loaded one.
func (h *RelaxedHandle[T]) sample(most bool) int {
	h.picks = h.smp.PickIn(h.r.pool.Shards(), h.r.d, h.picks)
	best := h.picks[0]
	for _, c := range h.picks[1:] {
		l, b := h.ph.load(c), h.ph.load(best)
		if most && l > b || !most && l < b {
			best = c
		}
	}
	return best
}

// choosePush picks the push target: least-loaded of d sampled shards,
// overridden by the push window when the sample has run too far ahead
// (the laggard shard then takes the push). Returns the reserved shard.
func (h *RelaxedHandle[T]) choosePush(n int64) int {
	st, best := h.r.stamps, h.sample(false)
	for {
		if _, ok := st.ReservePushN(best, n, h.r.seg); ok {
			return best
		}
		// Window rejected the sample: route to the laggard. The retry
		// loop is lock-free, not wait-free — a racing laggard push can
		// invalidate the argmin, but each failure means someone else's
		// push advanced, so the system makes progress.
		best = st.ArgMinPush()
	}
}

func (h *RelaxedHandle[T]) push(ctx context.Context, v T, left bool) error {
	i := h.choosePush(1)
	if err := h.ph.hs[i].push(ctx, v, left, 0); err != nil {
		h.r.stamps.UndoPush(i)
		return err
	}
	h.ph.note(i, 1)
	return nil
}

// PushLeft pushes v at the left end of the d-choice-selected shard;
// ErrFull when that shard's capacity is exhausted (nothing pushed).
func (h *RelaxedHandle[T]) PushLeft(v T) error {
	if h.strict() {
		return h.ph.PushLeft(0, v)
	}
	return h.push(nil, v, true)
}

// PushRight mirrors PushLeft on the right end.
func (h *RelaxedHandle[T]) PushRight(v T) error {
	if h.strict() {
		return h.ph.PushRight(0, v)
	}
	return h.push(nil, v, false)
}

// PushLeftCtx is PushLeft, aborting with ctx.Err() once ctx is
// cancelled; a non-nil error means nothing was pushed.
func (h *RelaxedHandle[T]) PushLeftCtx(ctx context.Context, v T) error {
	if h.strict() {
		return h.ph.PushLeftCtx(ctx, 0, v)
	}
	return h.push(ctx, v, true)
}

// PushRightCtx mirrors PushLeftCtx.
func (h *RelaxedHandle[T]) PushRightCtx(ctx context.Context, v T) error {
	if h.strict() {
		return h.ph.PushRightCtx(ctx, 0, v)
	}
	return h.push(ctx, v, false)
}

// pop drives the relaxed pop under certify: probe the most-loaded of d
// sampled shards, then sweep every shard. Each leg reserves a pop stamp,
// attempts the pop, and either records the rank estimate or undoes the
// stamp. A window rejection blocks the leg: the shard must not run
// further ahead of the laggard, and it holds values, so "empty" cannot
// be certified past it.
func (h *RelaxedHandle[T]) pop(ctx context.Context, left bool) (v T, ok bool, err error) {
	st := h.r.stamps
	cerr := h.ph.certify(ctx, h.r.pool.Shards(), func() int { return h.sample(true) }, inOrder,
		func(i int) legResult {
			q, reserved := st.ReservePop(i, h.r.seg)
			if !reserved {
				return legBlocked
			}
			if v, ok, err = h.ph.hs[i].pop(ctx, left, 0); !ok {
				st.UndoPop(i)
				if err != nil {
					return legDone
				}
				return legEmpty
			}
			h.ph.note(i, -1)
			if h.rec != nil && obs.Enabled {
				h.rec.Record(uint64(st.RankEstimate(i, q)))
			}
			return legDone
		})
	if cerr != nil {
		return v, false, cerr
	}
	return v, ok, err
}

// PopLeft pops from the left end of the most-loaded sampled shard,
// falling back to a full sweep; ok is false only after every shard came
// up empty. The returned value may be up to RankBound positions younger
// than the oldest resident one — that is the relaxation.
func (h *RelaxedHandle[T]) PopLeft() (v T, ok bool) {
	if h.strict() {
		return h.ph.PopLeft(0)
	}
	v, ok, _ = h.pop(nil, true)
	return v, ok
}

// PopRight mirrors PopLeft on the right end.
func (h *RelaxedHandle[T]) PopRight() (v T, ok bool) {
	if h.strict() {
		return h.ph.PopRight(0)
	}
	v, ok, _ = h.pop(nil, false)
	return v, ok
}

// PopLeftCtx is PopLeft, aborting with ctx.Err() once ctx is cancelled
// (consulted per shard pop and between sweeps).
func (h *RelaxedHandle[T]) PopLeftCtx(ctx context.Context) (v T, ok bool, err error) {
	if h.strict() {
		return h.ph.PopLeftCtx(ctx, 0)
	}
	return h.pop(ctx, true)
}

// PopRightCtx mirrors PopLeftCtx.
func (h *RelaxedHandle[T]) PopRightCtx(ctx context.Context) (v T, ok bool, err error) {
	if h.strict() {
		return h.ph.PopRightCtx(ctx, 0)
	}
	return h.pop(ctx, false)
}

func (h *RelaxedHandle[T]) pushN(vs []T, left bool) (int, error) {
	if len(vs) == 0 {
		return 0, nil
	}
	i := h.choosePush(int64(len(vs)))
	var (
		n   int
		err error
	)
	if left {
		n, err = h.ph.hs[i].PushLeftN(vs)
	} else {
		n, err = h.ph.hs[i].PushRightN(vs)
	}
	if n < len(vs) {
		h.r.stamps.AddPush(i, int64(n-len(vs))) // return the unused tail
	}
	if n > 0 {
		h.ph.note(i, int64(n))
	}
	return n, err
}

// PushLeftN pushes vs in order at the left end of one selected shard (a
// batch never splits, preserving contiguity there). On ErrFull the
// returned n reports the landed prefix. A batch counts as one window
// reservation at its head, so it may exceed the rank bound by up to
// len(vs)-1.
func (h *RelaxedHandle[T]) PushLeftN(vs []T) (int, error) {
	if h.strict() {
		return h.ph.PushLeftN(0, vs)
	}
	return h.pushN(vs, true)
}

// PushRightN mirrors PushLeftN on the right end.
func (h *RelaxedHandle[T]) PushRightN(vs []T) (int, error) {
	if h.strict() {
		return h.ph.PushRightN(0, vs)
	}
	return h.pushN(vs, false)
}

// popN is pop for a batch: each leg drains up to len(dst) values from
// one shard under one batch reservation, recording a single rank
// estimate for the batch head.
func (h *RelaxedHandle[T]) popN(dst []T, left bool) (got int) {
	st, want := h.r.stamps, int64(len(dst))
	h.ph.certify(nil, h.r.pool.Shards(), func() int { return h.sample(true) }, inOrder,
		func(i int) legResult {
			q, reserved := st.ReservePopN(i, want, h.r.seg)
			if !reserved {
				return legBlocked
			}
			if left {
				got = h.ph.hs[i].PopLeftN(dst)
			} else {
				got = h.ph.hs[i].PopRightN(dst)
			}
			if int64(got) < want {
				st.AddPop(i, int64(got)-want)
			}
			if got == 0 {
				return legEmpty
			}
			h.ph.note(i, -int64(got))
			if h.rec != nil && obs.Enabled {
				h.rec.Record(uint64(st.RankEstimate(i, q-want+1)))
			}
			return legDone
		})
	return got
}

// PopLeftN pops up to len(dst) values from the left end of one shard
// into dst in pop order, returning the count. A non-empty batch drains a
// single shard (contiguous there); 0 means every shard came up empty.
func (h *RelaxedHandle[T]) PopLeftN(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	if h.strict() {
		return h.ph.PopLeftN(0, dst)
	}
	return h.popN(dst, true)
}

// PopRightN mirrors PopLeftN on the right end.
func (h *RelaxedHandle[T]) PopRightN(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	if h.strict() {
		return h.ph.PopRightN(0, dst)
	}
	return h.popN(dst, false)
}

// Flush returns every per-shard handle's cached slab capacity and drains
// deferred reclamation work; call it before parking the handle.
func (h *RelaxedHandle[T]) Flush() { h.ph.Flush() }

// StackView returns this handle as a LIFO (left-end) view matching
// StackHandle's vocabulary, so code written against Deque views migrates
// to the relaxed front-end unchanged. LIFO order holds per shard; across
// shards it is relaxed by at most the configured bound.
func (h *RelaxedHandle[T]) StackView() RelaxedStackHandle[T] { return RelaxedStackHandle[T]{h: h} }

// QueueView returns this handle as a FIFO (push left, pop right) view
// matching QueueHandle's vocabulary. FIFO order holds per shard; across
// shards it is relaxed by at most the configured bound.
func (h *RelaxedHandle[T]) QueueView() RelaxedQueueHandle[T] { return RelaxedQueueHandle[T]{h: h} }

// RelaxedStackHandle is a LIFO method-subset view of a RelaxedHandle.
type RelaxedStackHandle[T any] struct {
	h *RelaxedHandle[T]
}

// Push adds v to the top of the stack; ErrFull when the selected shard's
// capacity is exhausted.
func (s RelaxedStackHandle[T]) Push(v T) error { return s.h.PushLeft(v) }

// Pop removes and returns a recently pushed value (within the rank
// bound); ok is false when every shard is empty.
func (s RelaxedStackHandle[T]) Pop() (T, bool) { return s.h.PopLeft() }

// PushCtx is Push, aborting with ctx.Err() once ctx is cancelled.
func (s RelaxedStackHandle[T]) PushCtx(ctx context.Context, v T) error {
	return s.h.PushLeftCtx(ctx, v)
}

// PopCtx is Pop, aborting with ctx.Err() once ctx is cancelled.
func (s RelaxedStackHandle[T]) PopCtx(ctx context.Context) (T, bool, error) {
	return s.h.PopLeftCtx(ctx)
}

// PushN pushes vs in order, batched; on ErrFull vs[:n] stays pushed.
func (s RelaxedStackHandle[T]) PushN(vs []T) (int, error) { return s.h.PushLeftN(vs) }

// PopN pops up to len(dst) values from the top into dst.
func (s RelaxedStackHandle[T]) PopN(dst []T) int { return s.h.PopLeftN(dst) }

// Flush parks the handle cleanly (see RelaxedHandle.Flush).
func (s RelaxedStackHandle[T]) Flush() { s.h.Flush() }

// RelaxedQueueHandle is a FIFO method-subset view of a RelaxedHandle.
type RelaxedQueueHandle[T any] struct {
	h *RelaxedHandle[T]
}

// Enqueue adds v at the back of the queue; ErrFull when the selected
// shard's capacity is exhausted.
func (q RelaxedQueueHandle[T]) Enqueue(v T) error { return q.h.PushLeft(v) }

// Dequeue removes and returns an oldest-within-the-bound value; ok is
// false when every shard is empty.
func (q RelaxedQueueHandle[T]) Dequeue() (T, bool) { return q.h.PopRight() }

// EnqueueCtx is Enqueue, aborting with ctx.Err() once ctx is cancelled.
func (q RelaxedQueueHandle[T]) EnqueueCtx(ctx context.Context, v T) error {
	return q.h.PushLeftCtx(ctx, v)
}

// DequeueCtx is Dequeue, aborting with ctx.Err() once ctx is cancelled.
func (q RelaxedQueueHandle[T]) DequeueCtx(ctx context.Context) (T, bool, error) {
	return q.h.PopRightCtx(ctx)
}

// EnqueueN enqueues vs in order, batched; on ErrFull vs[:n] stays
// enqueued.
func (q RelaxedQueueHandle[T]) EnqueueN(vs []T) (int, error) { return q.h.PushLeftN(vs) }

// DequeueN dequeues up to len(dst) values into dst in dequeue order.
func (q RelaxedQueueHandle[T]) DequeueN(dst []T) int { return q.h.PopRightN(dst) }

// Flush parks the handle cleanly (see RelaxedHandle.Flush).
func (q RelaxedQueueHandle[T]) Flush() { q.h.Flush() }
