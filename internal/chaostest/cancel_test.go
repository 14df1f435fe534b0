//go:build chaos

package chaostest

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
)

// These tests force a genuine livelock — every relevant transition CAS loses
// its race, forever — and check that the two bounded-operation families abort
// it exactly: the *Ctx variants with the context's error once it fires, the
// Try* variants with ErrContended once the attempt budget burns out, and in
// both cases with zero effect on the deque (nothing pushed, nothing popped,
// handle still usable).

// forcedLivelockPush blocks every transition a push could complete through.
func forcedLivelockPush() *chaos.Schedule {
	return chaos.NewSchedule(1).SetAll(
		[]chaos.Point{chaos.L1, chaos.L3, chaos.L6},
		chaos.Rule{FailEvery: 1})
}

// forcedLivelockPop blocks every transition a pop on a non-empty deque could
// complete through (L5/L7 only make progress toward L4, never finish a pop).
func forcedLivelockPop() *chaos.Schedule {
	return chaos.NewSchedule(1).SetAll(
		[]chaos.Point{chaos.L2, chaos.L4},
		chaos.Rule{FailEvery: 1})
}

// TestCtxCancelUnderForcedLivelock: a cancelled op must also leave the
// recycling state (hazard slots, retired nodes) exactly as an op that never
// ran.
func TestCtxCancelUnderForcedLivelock(t *testing.T) {
	d := core.New(core.Config{NodeSize: core.MinNodeSize, MaxThreads: 2})
	h := d.Register()
	if err := d.PushLeft(h, 7); err != nil { // seed so pops engage L2, not empty checks
		t.Fatalf("seed push: %v", err)
	}

	// Push side: deadline fires mid-livelock.
	chaos.Arm(forcedLivelockPush())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := d.PushLeftCtx(ctx, h, 9)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PushLeftCtx under forced livelock = %v, want DeadlineExceeded", err)
	}
	// Pre-cancelled context aborts before the first attempt, even mid-chaos.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := d.PushRightCtx(done, h, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("PushRightCtx with cancelled ctx = %v, want Canceled", err)
	}
	chaos.Disarm()
	if got := d.Len(); got != 1 {
		t.Fatalf("Len = %d after aborted pushes, want 1 (cancellation must be exact)", got)
	}

	// Pop side.
	chaos.Arm(forcedLivelockPop())
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, _, err = d.PopLeftCtx(ctx, h)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("PopLeftCtx under forced livelock = %v, want DeadlineExceeded", err)
	}
	if _, _, err := d.PopRightCtx(done, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("PopRightCtx with cancelled ctx = %v, want Canceled", err)
	}
	chaos.Disarm()
	if got := d.Len(); got != 1 {
		t.Fatalf("Len = %d after aborted pops, want 1 (cancellation must be exact)", got)
	}

	// The aborts left the deque intact: the seeded value is still there.
	v, ok := d.PopLeft(h)
	if !ok || v != 7 {
		t.Fatalf("PopLeft after aborts = (%d, %v), want (7, true)", v, ok)
	}
	if got := d.Len(); got != 0 {
		t.Fatalf("Len = %d after drain, want 0", got)
	}
}

func TestTryOpsUnderForcedLivelock(t *testing.T) {
	d := core.New(core.Config{NodeSize: core.MinNodeSize, MaxThreads: 2})
	h := d.Register()
	if err := d.PushLeft(h, 7); err != nil {
		t.Fatalf("seed push: %v", err)
	}

	chaos.Arm(forcedLivelockPush())
	if err := d.TryPushLeft(h, 9, 16); !errors.Is(err, core.ErrContended) {
		t.Fatalf("TryPushLeft under forced livelock = %v, want ErrContended", err)
	}
	if err := d.TryPushRight(h, 9, 16); !errors.Is(err, core.ErrContended) {
		t.Fatalf("TryPushRight under forced livelock = %v, want ErrContended", err)
	}
	chaos.Disarm()

	chaos.Arm(forcedLivelockPop())
	if _, _, err := d.TryPopLeft(h, 16); !errors.Is(err, core.ErrContended) {
		t.Fatalf("TryPopLeft under forced livelock = %v, want ErrContended", err)
	}
	if _, _, err := d.TryPopRight(h, 16); !errors.Is(err, core.ErrContended) {
		t.Fatalf("TryPopRight under forced livelock = %v, want ErrContended", err)
	}
	chaos.Disarm()

	// ErrContended had no effect and the handle stays usable: bounded ops
	// succeed immediately once the interference stops.
	if err := d.TryPushRight(h, 9, 4); err != nil {
		t.Fatalf("TryPushRight after disarm: %v", err)
	}
	if v, ok, err := d.TryPopLeft(h, 4); err != nil || !ok || v != 7 {
		t.Fatalf("TryPopLeft after disarm = (%d, %v, %v), want (7, true, nil)", v, ok, err)
	}
	if v, ok, err := d.TryPopRight(h, 4); err != nil || !ok || v != 9 {
		t.Fatalf("TryPopRight after disarm = (%d, %v, %v), want (9, true, nil)", v, ok, err)
	}
}
