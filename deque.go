// Package deque provides an unbounded, nonblocking (obstruction-free),
// linearizable concurrent double-ended queue — a Go implementation of
// Graichen, Izraelevitz, and Scott, "An Unbounded Nonblocking Double-ended
// Queue" (ICPP 2016).
//
// The structure is a doubly-linked chain of array-based nodes in the style
// of Herlihy–Luchangco–Moir, extended with node linking/unlinking so
// capacity is unbounded, and an optional elimination layer that cancels
// overlapping same-side push/pop pairs without touching the deque. See
// internal/core for the algorithm and DESIGN.md for the full map of this
// repository.
//
// # Usage
//
//	d := deque.New[string]()
//	h := d.Register()        // one handle per goroutine
//	h.PushLeft("a")
//	h.PushRight("b")
//	v, ok := h.PopRight()    // "b", true
//
// Handles are required because several internals (elimination slots, spare
// node caches) are per-thread; they are cheap and long-lived. All handle
// methods are safe to call concurrently with other handles' methods; a
// single Handle must not be shared between goroutines.
//
// Deque[T] carries values of any type by parking them in an internal
// lock-free slab and threading 32-bit handles through the algorithm's
// CAS-able slots (the paper's deque carries 32-bit values; see package
// word). Uint32 skips the indirection for the paper-faithful payload type.
package deque

import (
	"context"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/obs"
)

// options collects construction parameters. The *Set flags record which
// knobs the caller touched, so validation can reject explicit bad values
// (WithMaxThreads(0)) while an untouched knob keeps its default.
type options struct {
	nodeSize      int
	nodeSizeSet   bool
	maxThreads    int
	maxThreadsSet bool
	elimination   bool
	capacity      int
	capacitySet   bool
	registryLimit int
	registrySet   bool
	memLimit      int64
	memLimitSet   bool
	latSample     int
	latSampleSet  bool
}

// Option configures New and NewUint32.
type Option func(*options)

// WithNodeSize sets the slot count of each internal node (default 1024, the
// paper's choice). The size must be a power of two and at least 4; New
// rejects anything else with ErrBadOption. Smaller nodes exercise the
// linking paths more often; larger nodes amortize them further.
func WithNodeSize(n int) Option {
	return func(o *options) { o.nodeSize, o.nodeSizeSet = n, true }
}

// WithMaxThreads bounds the number of handles that may ever be registered
// (default 256). The bound must be positive; New rejects anything else with
// ErrBadOption.
func WithMaxThreads(n int) Option {
	return func(o *options) { o.maxThreads, o.maxThreadsSet = n, true }
}

// WithElimination enables the per-side elimination arrays (Section II-D of
// the paper): overlapping same-side push/pop pairs cancel without touching
// the deque. A large win for stack-like access, a small tax for queue-like
// access.
func WithElimination(on bool) Option { return func(o *options) { o.elimination = on } }

// WithCapacity bounds the number of values that may be resident at once in
// a Deque[T] (default 1<<22); the bound is exact — the (n+1)-th concurrent
// resident push returns ErrFull. The deque itself is unbounded; this sizes
// the value slab's handle space, whose handles ride the 32-bit slots: the
// capacity must lie in [1, MaxUint32Value+1], and New rejects anything
// else with ErrBadOption. NewUint32 ignores it.
func WithCapacity(n int) Option {
	return func(o *options) { o.capacity, o.capacitySet = n, true }
}

// WithRegistryLimit bounds the number of internal node IDs the deque may
// ever allocate (default 1<<26). A removed node keeps its ID and comes back
// through the recycling pool, so steady churn reuses IDs instead of
// spending them; only fresh allocations (the pool was empty) take a new
// one, and nodes the full pool turns away take theirs with them. Once the
// IDs are spent, pushes that need a node and find the pool empty return
// ErrFull, while pops, pushes into existing slots and pushes served from
// the pool keep working. The limit must be positive or New rejects it with
// ErrBadOption.
func WithRegistryLimit(n int) Option {
	return func(o *options) { o.registryLimit, o.registrySet = n, true }
}

// WithMemoryLimit caps the node-structure memory the deque may retain, in
// bytes: chained nodes, nodes awaiting reclamation grace, and pooled spares
// together. A push whose node allocation would exceed the cap fails with
// ErrFull (nothing pushed, the deque stays usable, pops make room). The
// cap is converted to a whole-node budget at construction and must admit at
// least two nodes at the configured WithNodeSize, or New rejects it with
// ErrBadOption.
//
// The limit governs the deque's unbounded component — the node chain. The
// value slab of a Deque[T] is bounded separately by WithCapacity and grows
// lazily toward it; budget the two independently.
func WithMemoryLimit(bytes int64) Option {
	return func(o *options) { o.memLimit, o.memLimitSet = bytes, true }
}

// WithLatencySample sets the per-handle operation-latency sampling rate:
// every n-th operation per handle records its wall-clock duration into the
// deque's log-bucketed latency histograms (see Metrics.Latency,
// LatencySnapshot, WriteLatMetricsProm). Single-value operations and whole
// batch calls (PushLeftN, PopRightN, ...) share one countdown: a batch call
// is one tick, and a sampled one records as batch_push or batch_pop. The
// default is obs-internal DefaultLatSample (currently 1024) — latency
// histograms are on by default because the sampled path costs two clock
// reads per n ops and the histograms themselves are per-handle
// single-writer. n == 1 times every operation; n == 0 disables latency
// recording entirely; negative rates are rejected with ErrBadOption. A
// Pool's steal sweeps are always timed (they are rare, and sampling would
// hide exactly the tail they exist to expose) — except when recording is
// disabled, which turns those off too. Building with -tags obsoff compiles
// all of it away regardless.
func WithLatencySample(n int) Option {
	return func(o *options) { o.latSample, o.latSampleSet = n, true }
}

func buildOptions(opts []Option) (options, error) {
	o := options{capacity: 1 << 22}
	for _, f := range opts {
		f(&o)
	}
	return o, o.validate()
}

// effectiveNodeSize is the node size core.New will use, defaults applied —
// the memory-limit budget math needs it before core.New runs.
func (o options) effectiveNodeSize() int {
	if o.nodeSize == 0 {
		return core.DefaultNodeSize
	}
	return o.nodeSize
}

// nodeBudget converts the byte limit into a whole-node live bound at the
// effective node size. Only meaningful when memLimitSet.
func (o options) nodeBudget() int64 {
	return o.memLimit / core.NodeFootprint(o.effectiveNodeSize())
}

func (o options) coreConfig() core.Config {
	cfg := core.Config{
		NodeSize:      o.nodeSize,
		MaxThreads:    o.maxThreads,
		Elimination:   o.elimination,
		RegistryLimit: uint32(o.registryLimit),
	}
	if o.latSampleSet {
		if o.latSample == 0 {
			cfg.LatSample = -1 // explicit 0 means "off"; core's 0 means "default"
		} else {
			cfg.LatSample = o.latSample
		}
	}
	if o.memLimitSet {
		b := o.nodeBudget()
		if b > int64(^uint32(0)) {
			b = int64(^uint32(0))
		}
		cfg.MaxLiveNodes = uint32(b)
	}
	return cfg
}

// Deque is an unbounded concurrent double-ended queue of T.
type Deque[T any] struct {
	core *core.Deque
	slab *arena.Slab[T]
}

// New returns an empty Deque[T]. It panics on invalid options (see
// ErrBadOption); use NewChecked to receive the error instead.
func New[T any](opts ...Option) *Deque[T] {
	d, err := NewChecked[T](opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// NewChecked is New returning invalid options as an error wrapping
// ErrBadOption instead of panicking — the route for configuration that
// arrives from outside the program (flags, config files).
func NewChecked[T any](opts ...Option) (*Deque[T], error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Deque[T]{
		core: core.New(o.coreConfig()),
		slab: arena.NewSlab[T](uint32(o.capacity)),
	}, nil
}

// Register returns a Handle for the calling goroutine. It panics when more
// than MaxThreads handles are registered.
func (d *Deque[T]) Register() *Handle[T] {
	return &Handle[T]{d: d, h: d.core.Register(), sh: d.slab.NewHandle()}
}

// Len returns the number of stored values. It is exact only in quiescence
// (no concurrent operations); use it for tests, stats, and shutdown checks.
func (d *Deque[T]) Len() int { return d.core.Len() }

// Handle is a per-goroutine accessor to a Deque[T]. Not safe for concurrent
// use; register one per goroutine.
type Handle[T any] struct {
	d       *Deque[T]
	h       *core.Handle
	sh      *arena.SlabHandle[T] // per-handle slab freelist cache
	scratch []uint32             // reusable slab-handle buffer for batch ops
}

// push is the body of every single-value push: park v in the slab, push
// its slab handle through the core (ctx non-nil: the Ctx variant; attempts
// > 0: the Try variant), and take the entry back if the core push failed,
// so an error leaves nothing behind. Only ErrFull, ctx.Err() and
// ErrContended are reachable: slab handles sit below the reserved range.
func (h *Handle[T]) push(ctx context.Context, v T, left bool, attempts int) error {
	hv, err := h.sh.TryPut(v)
	if err != nil {
		return ErrFull // the slab's occupancy limit (WithCapacity)
	}
	if ctx == nil && attempts == 0 {
		err = h.d.core.Push(h.h, side(left), hv, nil)
	} else {
		err = h.d.core.PushBounded(ctx, h.h, side(left), hv, attempts)
	}
	if err != nil {
		h.sh.Take(hv)
	}
	return err
}

// pop is the body of every single-value pop, selected like push.
func (h *Handle[T]) pop(ctx context.Context, left bool, attempts int) (v T, ok bool, err error) {
	var hv uint32
	if ctx == nil && attempts == 0 {
		hv, ok, err = h.d.core.Pop(h.h, side(left), nil)
	} else {
		hv, ok, err = h.d.core.PopBounded(ctx, h.h, side(left), attempts)
	}
	if err != nil || !ok {
		return v, false, err
	}
	return h.sh.Take(hv), true, nil
}

func side(left bool) obs.Side {
	if left {
		return obs.SideLeft
	}
	return obs.SideRight
}

// PushLeft inserts v at the left end. It returns nil on success or ErrFull
// when the deque's value capacity (WithCapacity) or internal node registry
// is exhausted; an ErrFull push has no effect. Earlier versions panicked
// (or silently dropped the condition); callers that sized capacity
// generously may still safely ignore the error.
func (h *Handle[T]) PushLeft(v T) error { return h.push(nil, v, true, 0) }

// PushRight inserts v at the right end; errors as PushLeft.
func (h *Handle[T]) PushRight(v T) error { return h.push(nil, v, false, 0) }

// PopLeft removes and returns the leftmost value; ok is false when the
// deque was empty.
func (h *Handle[T]) PopLeft() (v T, ok bool) {
	v, ok, _ = h.pop(nil, true, 0)
	return v, ok
}

// PopRight removes and returns the rightmost value; ok is false when the
// deque was empty.
func (h *Handle[T]) PopRight() (v T, ok bool) {
	v, ok, _ = h.pop(nil, false, 0)
	return v, ok
}

// PushLeftCtx is PushLeft, aborting with ctx.Err() once ctx is cancelled.
// Cancellation is exact: a non-nil error means nothing was pushed.
func (h *Handle[T]) PushLeftCtx(ctx context.Context, v T) error { return h.push(ctx, v, true, 0) }

// PushRightCtx mirrors PushLeftCtx.
func (h *Handle[T]) PushRightCtx(ctx context.Context, v T) error { return h.push(ctx, v, false, 0) }

// PopLeftCtx is PopLeft, aborting with ctx.Err() once ctx is cancelled.
// ok is meaningful only when err is nil; err non-nil means nothing was
// popped.
func (h *Handle[T]) PopLeftCtx(ctx context.Context) (v T, ok bool, err error) {
	return h.pop(ctx, true, 0)
}

// PopRightCtx mirrors PopLeftCtx.
func (h *Handle[T]) PopRightCtx(ctx context.Context) (v T, ok bool, err error) {
	return h.pop(ctx, false, 0)
}

// TryPushLeft is PushLeft bounded to at most attempts retry cycles
// (minimum 1), returning ErrContended — nothing pushed — when other
// threads kept winning races for the whole budget.
func (h *Handle[T]) TryPushLeft(v T, attempts int) error {
	return h.push(nil, v, true, max(attempts, 1))
}

// TryPushRight mirrors TryPushLeft.
func (h *Handle[T]) TryPushRight(v T, attempts int) error {
	return h.push(nil, v, false, max(attempts, 1))
}

// TryPopLeft is PopLeft bounded to at most attempts retry cycles; err is
// ErrContended (nothing popped) when the budget is spent. ok is meaningful
// only when err is nil.
func (h *Handle[T]) TryPopLeft(attempts int) (v T, ok bool, err error) {
	return h.pop(nil, true, max(attempts, 1))
}

// TryPopRight mirrors TryPopLeft.
func (h *Handle[T]) TryPopRight(attempts int) (v T, ok bool, err error) {
	return h.pop(nil, false, max(attempts, 1))
}

// buf returns the handle's scratch buffer with room for n slab handles.
func (h *Handle[T]) buf(n int) []uint32 {
	if cap(h.scratch) < n {
		h.scratch = make([]uint32, n)
	}
	return h.scratch[:n]
}

// putN parks vs[0:] in the slab, filling hvs. On exhaustion it takes back
// every entry it already parked and returns ErrFull (nothing retained).
func (h *Handle[T]) putN(vs []T, hvs []uint32) error {
	for i, v := range vs {
		hv, err := h.sh.TryPut(v)
		if err != nil {
			for j := 0; j < i; j++ {
				h.sh.Take(hvs[j])
			}
			return ErrFull
		}
		hvs[i] = hv
	}
	return nil
}

// pushN is the body of PushLeftN/PushRightN.
func (h *Handle[T]) pushN(vs []T, left bool) (int, error) {
	if len(vs) == 0 {
		return 0, nil
	}
	hvs := h.buf(len(vs))
	if err := h.putN(vs, hvs); err != nil {
		return 0, err
	}
	var n int
	var err error
	if left {
		n, err = h.d.core.PushLeftN(h.h, hvs)
	} else {
		n, err = h.d.core.PushRightN(h.h, hvs)
	}
	if err != nil {
		for _, hv := range hvs[n:] {
			h.sh.Take(hv)
		}
	}
	return n, err
}

// PushLeftN pushes the elements of vs in order, each becoming the new
// leftmost — equivalent to calling PushLeft per element, but the slab
// allocations and edge transitions are batched. On ErrFull the returned
// count reports how many elements landed; like the equivalent individual
// pushes, the prefix vs[:n] stays pushed and vs[n:] had no effect.
func (h *Handle[T]) PushLeftN(vs []T) (int, error) { return h.pushN(vs, true) }

// PushRightN pushes the elements of vs in order, each becoming the new
// rightmost — equivalent to calling PushRight per element; errors as
// PushLeftN.
func (h *Handle[T]) PushRightN(vs []T) (int, error) { return h.pushN(vs, false) }

// popN is the body of PopLeftN/PopRightN.
func (h *Handle[T]) popN(dst []T, left bool) int {
	if len(dst) == 0 {
		return 0
	}
	hvs := h.buf(len(dst))
	var n int
	if left {
		n = h.d.core.PopLeftN(h.h, hvs)
	} else {
		n = h.d.core.PopRightN(h.h, hvs)
	}
	for i := 0; i < n; i++ {
		dst[i] = h.sh.Take(hvs[i])
	}
	return n
}

// PopLeftN pops up to len(dst) values from the left end into dst in pop
// order, stopping early when the deque is empty.
//
// The returned n int is the exact count popped: dst[:n] holds the values
// and dst[n:] is untouched. n pairs with the batch-push prefix contract —
// after a PushRightN truncated to (k, ErrFull), draining pops observe
// exactly the pushed prefix vs[:k], in order, and nothing of vs[k:].
func (h *Handle[T]) PopLeftN(dst []T) int { return h.popN(dst, true) }

// PopRightN pops up to len(dst) values from the right end into dst in pop
// order. The returned n int is the exact count popped: dst[:n] holds the
// values, dst[n:] is untouched (see PopLeftN for the full contract).
func (h *Handle[T]) PopRightN(dst []T) int { return h.popN(dst, false) }

// Flush returns the handle's cached slab capacity to the shared freelists
// and drains its deferred node-reclamation work: it withdraws the handle's
// hazard pointers and frees its pending retires. Call it before parking a
// handle for a long time — an idle handle otherwise keeps its pending
// retires out of the recycling pool and its hazard pointers pinning nodes
// — and when a goroutine is done with its handle for good. The
// handle remains usable; a dropped unflushed handle only strands its cached
// indices and pending retires (both bounded), it does not leak values.
func (h *Handle[T]) Flush() {
	h.sh.Flush()
	h.h.Drain()
}

// Eliminated reports how many of this handle's operations completed via
// elimination (always 0 unless WithElimination was set).
func (h *Handle[T]) Eliminated() uint64 { return h.h.Eliminated }

// Stats is a snapshot of a handle's operation counters.
type Stats = core.Stats

// Stats returns a copy of this handle's counters.
func (h *Handle[T]) Stats() Stats { return h.h.Stats() }

// Uint32 is the paper-faithful deque over raw uint32 payloads: no value
// slab, values live directly in the 64-bit CAS slots. Values must be at
// most MaxUint32Value.
type Uint32 struct {
	core *core.Deque
}

// MaxUint32Value is the largest value a Uint32 deque can store; the four
// values above it are reserved slot markers (LN/RN/LS/RS in the paper).
const MaxUint32Value = 0xFFFFFFFB

// NewUint32 returns an empty Uint32 deque. It panics on invalid options
// (see ErrBadOption); use NewUint32Checked to receive the error instead.
func NewUint32(opts ...Option) *Uint32 {
	d, err := NewUint32Checked(opts...)
	if err != nil {
		panic(err)
	}
	return d
}

// NewUint32Checked is NewUint32 returning invalid options as an error
// wrapping ErrBadOption instead of panicking.
func NewUint32Checked(opts ...Option) (*Uint32, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	return &Uint32{core: core.New(o.coreConfig())}, nil
}

// Register returns a handle for the calling goroutine.
func (d *Uint32) Register() *Uint32Handle {
	return &Uint32Handle{d: d, h: d.core.Register()}
}

// Len returns the number of stored values; exact only in quiescence.
func (d *Uint32) Len() int { return d.core.Len() }

// Uint32Handle is a per-goroutine accessor to a Uint32 deque.
type Uint32Handle struct {
	d *Uint32
	h *core.Handle
}

// PushLeft inserts v at the left end; ErrReserved if v > MaxUint32Value,
// ErrFull (nothing pushed) if the node registry or the memory limit is
// exhausted.
func (h *Uint32Handle) PushLeft(v uint32) error { return h.d.core.PushLeft(h.h, v) }

// PushRight inserts v at the right end; errors as PushLeft.
func (h *Uint32Handle) PushRight(v uint32) error { return h.d.core.PushRight(h.h, v) }

// PopLeft removes and returns the leftmost value; ok is false when empty.
func (h *Uint32Handle) PopLeft() (uint32, bool) { return h.d.core.PopLeft(h.h) }

// PopRight removes and returns the rightmost value; ok is false when empty.
func (h *Uint32Handle) PopRight() (uint32, bool) { return h.d.core.PopRight(h.h) }

// PushLeftCtx is PushLeft, aborting with ctx.Err() once ctx is cancelled;
// a non-nil error means nothing was pushed.
func (h *Uint32Handle) PushLeftCtx(ctx context.Context, v uint32) error {
	return h.d.core.PushLeftCtx(ctx, h.h, v)
}

// PushRightCtx mirrors PushLeftCtx.
func (h *Uint32Handle) PushRightCtx(ctx context.Context, v uint32) error {
	return h.d.core.PushRightCtx(ctx, h.h, v)
}

// PopLeftCtx is PopLeft, aborting with ctx.Err() once ctx is cancelled.
// ok is meaningful only when err is nil.
func (h *Uint32Handle) PopLeftCtx(ctx context.Context) (uint32, bool, error) {
	return h.d.core.PopLeftCtx(ctx, h.h)
}

// PopRightCtx mirrors PopLeftCtx.
func (h *Uint32Handle) PopRightCtx(ctx context.Context) (uint32, bool, error) {
	return h.d.core.PopRightCtx(ctx, h.h)
}

// TryPushLeft is PushLeft bounded to at most attempts retry cycles
// (minimum 1); ErrContended means the budget was spent and nothing was
// pushed.
func (h *Uint32Handle) TryPushLeft(v uint32, attempts int) error {
	return h.d.core.TryPushLeft(h.h, v, attempts)
}

// TryPushRight mirrors TryPushLeft.
func (h *Uint32Handle) TryPushRight(v uint32, attempts int) error {
	return h.d.core.TryPushRight(h.h, v, attempts)
}

// TryPopLeft is PopLeft bounded to at most attempts retry cycles; ok is
// meaningful only when err is nil.
func (h *Uint32Handle) TryPopLeft(attempts int) (uint32, bool, error) {
	return h.d.core.TryPopLeft(h.h, attempts)
}

// TryPopRight mirrors TryPopLeft.
func (h *Uint32Handle) TryPopRight(attempts int) (uint32, bool, error) {
	return h.d.core.TryPopRight(h.h, attempts)
}

// PushLeftN pushes the elements of vs in order, each becoming the new
// leftmost; ErrReserved (pushing nothing) if any exceeds MaxUint32Value.
// On ErrFull the returned count reports how many elements landed; the
// prefix vs[:n] stays pushed, exactly as individual pushes would have.
func (h *Uint32Handle) PushLeftN(vs []uint32) (int, error) { return h.d.core.PushLeftN(h.h, vs) }

// PushRightN pushes the elements of vs in order, each becoming the new
// rightmost; errors as PushLeftN.
func (h *Uint32Handle) PushRightN(vs []uint32) (int, error) { return h.d.core.PushRightN(h.h, vs) }

// PopLeftN pops up to len(dst) values from the left end into dst in pop
// order, stopping early when the deque is empty. The returned n int is
// the exact count popped: dst[:n] holds the values, dst[n:] is untouched
// — after a PushRightN truncated to (k, ErrFull), draining pops observe
// exactly the pushed prefix vs[:k] and nothing of vs[k:].
func (h *Uint32Handle) PopLeftN(dst []uint32) int { return h.d.core.PopLeftN(h.h, dst) }

// PopRightN pops up to len(dst) values from the right end into dst in pop
// order. The returned n int is the exact count popped: dst[:n] holds the
// values, dst[n:] is untouched (see PopLeftN for the full contract).
func (h *Uint32Handle) PopRightN(dst []uint32) int { return h.d.core.PopRightN(h.h, dst) }

// Flush drains this handle's deferred node-reclamation work: it returns
// the handle's cached spare nodes to the pool, withdraws its hazard
// pointers and frees its pending retires. Call it before parking a handle
// for a long time — an idle handle otherwise keeps its pending retires out
// of the recycling pool. The handle remains usable.
func (h *Uint32Handle) Flush() { h.h.Drain() }

// Eliminated reports how many of this handle's operations completed via
// elimination.
func (h *Uint32Handle) Eliminated() uint64 { return h.h.Eliminated }

// Stats returns a copy of this handle's counters.
func (h *Uint32Handle) Stats() Stats { return h.h.Stats() }
