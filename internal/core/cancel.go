package core

import (
	"context"

	"repro/internal/obs"
)

// This file holds the cancellable and bounded-attempt entry points. The
// paper's deque is obstruction-free: an operation is only guaranteed to
// finish in isolation, so under an adversarial schedule (or a chaos
// schedule — see internal/chaos) the plain operations can retry
// unboundedly. These variants bound that risk in two ways, both inside the
// one retry loop per op kind (Push/Pop in ops.go):
//
//   - *Ctx: before every attempt the loop polls ctx.Done() (hoisted out of
//     the loop; a non-blocking receive) and aborts with ctx.Err().
//     Cancellation is exact: a non-nil error means the operation did NOT
//     take effect (no value pushed, no value popped).
//
//   - Try*: the loop runs at most `attempts` full oracle+transition
//     cycles, then aborts with ErrContended. ErrContended means other
//     threads kept winning races — the deque is intact, and retrying later
//     is always legal.
//
// Both families take the direct (non-elimination) path even on
// elimination-enabled deques: an advertised operation can be matched by a
// partner at any moment, which would make "aborted" ambiguous — skipping
// the arrays keeps the abort guarantee exact, and is always safe because
// elimination is an optional bypass, never required for correctness.
//
// A cancelled or contended operation leaves the handle fully reusable; the
// livelock watchdog's streak (Stats().ConsecFails) carries across the
// abort, so a caller retrying in a loop still gets escalation.

// PushLeftCtx is PushLeft, aborting with ctx.Err() once ctx is cancelled.
// The context is polled before every attempt; a non-nil return other than
// ErrReserved/ErrFull means nothing was pushed.
func (d *Deque) PushLeftCtx(ctx context.Context, h *Handle, v uint32) error {
	return d.PushBounded(ctx, h, obs.SideLeft, v, 0)
}

// PushRightCtx mirrors PushLeftCtx.
func (d *Deque) PushRightCtx(ctx context.Context, h *Handle, v uint32) error {
	return d.PushBounded(ctx, h, obs.SideRight, v, 0)
}

// PopLeftCtx is PopLeft, aborting with ctx.Err() once ctx is cancelled.
// ok is meaningful only when err is nil; err non-nil means nothing was
// popped.
func (d *Deque) PopLeftCtx(ctx context.Context, h *Handle) (v uint32, ok bool, err error) {
	return d.PopBounded(ctx, h, obs.SideLeft, 0)
}

// PopRightCtx mirrors PopLeftCtx.
func (d *Deque) PopRightCtx(ctx context.Context, h *Handle) (v uint32, ok bool, err error) {
	return d.PopBounded(ctx, h, obs.SideRight, 0)
}

// TryPushLeft is PushLeft bounded to at most attempts oracle+transition
// cycles (minimum 1), returning ErrContended when the budget is spent
// without completing.
func (d *Deque) TryPushLeft(h *Handle, v uint32, attempts int) error {
	return d.PushBounded(nil, h, obs.SideLeft, v, max(attempts, 1))
}

// TryPushRight mirrors TryPushLeft.
func (d *Deque) TryPushRight(h *Handle, v uint32, attempts int) error {
	return d.PushBounded(nil, h, obs.SideRight, v, max(attempts, 1))
}

// TryPopLeft is PopLeft bounded to at most attempts cycles; err is
// ErrContended when the budget is spent. ok is meaningful only when err is
// nil.
func (d *Deque) TryPopLeft(h *Handle, attempts int) (v uint32, ok bool, err error) {
	return d.PopBounded(nil, h, obs.SideLeft, max(attempts, 1))
}

// TryPopRight mirrors TryPopLeft.
func (d *Deque) TryPopRight(h *Handle, attempts int) (v uint32, ok bool, err error) {
	return d.PopBounded(nil, h, obs.SideRight, max(attempts, 1))
}

// Bound carries a bounded variant's limits (set by PushBounded and
// PopBounded) into the retry loop, Push/Pop in ops.go; the plain ops pass
// a nil *Bound and pay one nil check per attempt.
type Bound struct {
	ctx context.Context
	// done is ctx.Done(), fetched once per op: on go1.24 cancelCtx.Err
	// locks a mutex, while a non-blocking receive does not. nil means
	// never cancelled.
	done     <-chan struct{}
	attempts int  // the attempt budget; 0 = unlimited
	ran      int  // attempts begun so far (kept here, off the plain path)
	head     bool // a batch run's head: no opStart or elimination
	idx      int  // out: the landing attempt's edge index, for a batch run
}

// PushBounded is Push with a *Ctx op's limit (ctx non-nil: abort with
// ctx.Err() once it is cancelled) and/or a Try* op's (attempts > 0: abort
// with ErrContended after that many attempts).
func (d *Deque) PushBounded(ctx context.Context, h *Handle, s obs.Side, v uint32, attempts int) error {
	b := Bound{ctx: ctx, attempts: attempts}
	if ctx != nil {
		b.done = ctx.Done()
	}
	return d.Push(h, s, v, &b)
}

// PopBounded is Pop with PushBounded's limits.
func (d *Deque) PopBounded(ctx context.Context, h *Handle, s obs.Side, attempts int) (uint32, bool, error) {
	b := Bound{ctx: ctx, attempts: attempts}
	if ctx != nil {
		b.done = ctx.Done()
	}
	return d.Pop(h, s, &b)
}

// check applies the two abort conditions before the next attempt:
// context cancellation, then the attempt budget.
func (b *Bound) check() error {
	if b.done != nil {
		select {
		case <-b.done:
			return b.ctx.Err()
		default:
		}
	}
	if b.attempts > 0 && b.ran >= b.attempts {
		return ErrContended
	}
	b.ran++
	return nil
}

func (b *Bound) isHead() bool { return b != nil && b.head }
