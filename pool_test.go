package deque

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/shard"
)

// keyFor returns a routing key whose KeyAffinity home is shard want of n.
func keyFor(t *testing.T, n, want int) uint64 {
	t.Helper()
	for key := uint64(0); key < 1<<16; key++ {
		if int(shard.Hash(key)%uint64(n)) == want {
			return key
		}
	}
	t.Fatalf("no key found homing to shard %d of %d", want, n)
	return 0
}

func TestPoolConstructionValidation(t *testing.T) {
	if _, err := NewPoolChecked[int](0); !errors.Is(err, ErrBadOption) {
		t.Fatalf("NewPoolChecked(0): err = %v, want ErrBadOption", err)
	}
	if _, err := NewPoolChecked[int](4, WithRouting(RoutePolicy(99))); !errors.Is(err, ErrBadOption) {
		t.Fatalf("bad policy: err = %v, want ErrBadOption", err)
	}
	// Shard options are validated per shard through the same contract.
	if _, err := NewPoolChecked[int](2, WithShardOptions(WithNodeSize(3))); !errors.Is(err, ErrBadOption) {
		t.Fatalf("bad shard option: err = %v, want ErrBadOption", err)
	}
	if _, err := ParseRouting("bogus"); !errors.Is(err, ErrBadOption) {
		t.Fatal("ParseRouting(bogus) must wrap ErrBadOption")
	}
	for _, s := range []string{"rr", "key", "least"} {
		if _, err := ParseRouting(s); err != nil {
			t.Fatalf("ParseRouting(%q): %v", s, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(-1) did not panic")
		}
	}()
	NewPool[int](-1)
}

func TestPoolRoundRobinSpreads(t *testing.T) {
	p := NewPool[int](4, WithRouting(RouteRoundRobin))
	h := p.Register()
	for i := 0; i < 40; i++ {
		if err := h.PushLeft(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < p.Shards(); i++ {
		if got := p.Shard(i).Len(); got != 10 {
			t.Fatalf("shard %d has %d values, want 10 (round-robin must spread evenly)", i, got)
		}
	}
	if p.LenExact() != 40 || p.Len() != 40 {
		t.Fatalf("LenExact = %d, Len = %d, want 40", p.LenExact(), p.Len())
	}
}

// A handle alternating push and pop must pop where it pushed: round-robin
// pushes and pops advance separate cursors, so the pushes cover every
// shard and no pop falls through to a steal sweep.
func TestPoolRoundRobinAlternatingPopsHome(t *testing.T) {
	p := NewPool[int](4, WithRouting(RouteRoundRobin), WithStealing(true))
	h := p.Register()
	pushes := make([]int, p.Shards())
	for i := 0; i < 40; i++ {
		if err := h.PushLeft(0, i); err != nil {
			t.Fatal(err)
		}
		for j := range pushes {
			if p.Shard(j).Len() == 1 {
				pushes[j]++
			}
		}
		if v, ok := h.PopRight(0); !ok || v != i {
			t.Fatalf("pop %d = %d, %v; want %d, true", i, v, ok, i)
		}
	}
	for _, n := range pushes {
		if n != 10 {
			t.Fatalf("pushes per shard %v, want 10 each (round-robin must spread evenly)", pushes)
		}
	}
	if n := p.LatencySnapshot().Classes[obs.LatStealSweep].Count; n != 0 {
		t.Fatalf("%d steal_sweep samples, want 0 (every pop should find its home shard's value)", n)
	}
}

func TestPoolKeyAffinityPins(t *testing.T) {
	p := NewPool[int](4, WithRouting(RouteKeyAffinity), WithStealing(false))
	h := p.Register()
	key := keyFor(t, 4, 2)
	for i := 0; i < 16; i++ {
		if err := h.PushRight(key, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Shard(2).Len(); got != 16 {
		t.Fatalf("home shard holds %d, want all 16", got)
	}
	// Same key pops from the same shard, in that shard's deque order.
	for i := 0; i < 16; i++ {
		v, ok := h.PopLeft(key)
		if !ok || v != i {
			t.Fatalf("pop %d = %d, %v; want %d, true (per-key FIFO within the shard)", i, v, ok, i)
		}
	}
}

func TestPoolLeastLoadedBalances(t *testing.T) {
	p := NewPool[int](4, WithRouting(RouteLeastLoaded))
	h := p.Register()
	for i := 0; i < 64; i++ {
		if err := h.PushLeft(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < p.Shards(); i++ {
		if got := p.Shard(i).Len(); got != 16 {
			t.Fatalf("shard %d has %d values, want 16 (least-loaded pushes must balance)", i, got)
		}
	}
	// Preload one shard directly; pops must drain the deepest backlog.
	dh := p.Shard(3).Register()
	for i := 0; i < 8; i++ {
		if err := dh.PushLeft(1000 + i); err != nil {
			t.Fatal(err)
		}
	}
	// The estimate doesn't see direct shard pushes, so bump it the same
	// way pool ops would to keep the heuristic in sync for this test.
	for i := 0; i < 8; i++ {
		p.loads[3].n.Add(1)
	}
	if _, ok := h.PopRight(0); !ok {
		t.Fatal("pop on non-empty pool failed")
	}
	if got := p.Shard(3).Len(); got != 23 {
		t.Fatalf("most-loaded shard has %d after pop, want 23", got)
	}
}

func TestPoolStealOnEmptyOppositeEnd(t *testing.T) {
	p := NewPool[int](4, WithRouting(RouteKeyAffinity))
	h := p.Register()
	victimKey := keyFor(t, 4, 0)
	thiefKey := keyFor(t, 4, 3)

	// Victim shard 0 holds 1,2,3 left-to-right.
	for _, v := range []int{1, 2, 3} {
		if err := h.PushRight(victimKey, v); err != nil {
			t.Fatal(err)
		}
	}
	// A left pop homed on empty shard 3 must steal from the victim's
	// RIGHT end (the far end from a left consumer): value 3.
	if v, ok := h.PopLeft(thiefKey); !ok || v != 3 {
		t.Fatalf("stealing PopLeft = %d, %v; want 3 (victim's right end)", v, ok)
	}
	// A right pop steals from the victim's LEFT end: value 1.
	if v, ok := h.PopRight(thiefKey); !ok || v != 1 {
		t.Fatalf("stealing PopRight = %d, %v; want 1 (victim's left end)", v, ok)
	}
	if v, ok := h.PopLeft(thiefKey); !ok || v != 2 {
		t.Fatalf("final steal = %d, %v; want 2", v, ok)
	}
	if _, ok := h.PopLeft(thiefKey); ok {
		t.Fatal("pop on globally empty pool reported a value")
	}

	// With stealing off, the same shape misses.
	p2 := NewPool[int](4, WithRouting(RouteKeyAffinity), WithStealing(false))
	h2 := p2.Register()
	if err := h2.PushRight(victimKey, 7); err != nil {
		t.Fatal(err)
	}
	if _, ok := h2.PopLeft(thiefKey); ok {
		t.Fatal("stealing disabled but pop crossed shards")
	}
	if v, ok := h2.PopLeft(victimKey); !ok || v != 7 {
		t.Fatalf("home pop = %d, %v; want 7", v, ok)
	}
}

func TestPoolStealFindsStaleEstimateValues(t *testing.T) {
	// Values pushed directly on a shard are invisible to the load
	// estimates; the steal path's final sweep must still find them.
	p := NewPool[int](4, WithRouting(RouteKeyAffinity))
	direct := p.Shard(1).Register()
	if err := direct.PushLeft(42); err != nil {
		t.Fatal(err)
	}
	h := p.Register()
	if v, ok := h.PopLeft(keyFor(t, 4, 2)); !ok || v != 42 {
		t.Fatalf("steal sweep = %d, %v; want 42, true", v, ok)
	}
}

func TestPoolBatchPrefixAndSteal(t *testing.T) {
	// Per-shard capacity 8: a 12-element batch lands an 8-prefix.
	p := NewPool[int](2, WithRouting(RouteKeyAffinity),
		WithShardOptions(WithCapacity(8), WithNodeSize(4)))
	h := p.Register()
	key := keyFor(t, 2, 0)
	vs := make([]int, 8)
	for i := range vs {
		vs[i] = 100 + i
	}
	n, err := h.PushRightN(key, vs)
	if n != 8 || err != nil {
		t.Fatalf("PushRightN = %d, %v; want 8, nil", n, err)
	}
	// The shard is at capacity: singles fail with ErrFull, and a batch
	// that cannot park its values in the slab lands nothing (n = 0 — the
	// value slab reserves batch space up front, all or nothing).
	if err := h.PushRight(key, 999); !errors.Is(err, ErrFull) {
		t.Fatalf("push over capacity = %v, want ErrFull", err)
	}
	if n, err := h.PushRightN(key, vs[:4]); n != 0 || !errors.Is(err, ErrFull) {
		t.Fatalf("batch over capacity = %d, %v; want 0, ErrFull", n, err)
	}
	// The other key's shard is empty; a batch pop there steals the whole
	// prefix from the victim's opposite end.
	other := keyFor(t, 2, 1)
	dst := make([]int, 16)
	got := h.PopLeftN(other, dst)
	if got != 8 {
		t.Fatalf("stealing PopLeftN = %d, want 8", got)
	}
	// Left pop steals from the victim's right end: prefix in reverse.
	for i := 0; i < got; i++ {
		if dst[i] != 100+7-i {
			t.Fatalf("stolen batch[%d] = %d, want %d", i, dst[i], 100+7-i)
		}
	}
	if p.LenExact() != 0 || p.Len() != 0 {
		t.Fatalf("pool not empty after drain: exact=%d est=%d", p.LenExact(), p.Len())
	}
}

func TestPoolCtxOps(t *testing.T) {
	p := NewPool[int](2)
	h := p.Register()
	ctx := context.Background()
	if err := h.PushLeftCtx(ctx, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.PushRightCtx(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := h.PopLeftCtx(ctx, 0); !ok || err != nil {
		t.Fatalf("PopLeftCtx: ok=%v err=%v", ok, err)
	}
	if _, ok, err := h.PopRightCtx(ctx, 0); !ok || err != nil {
		t.Fatalf("PopRightCtx: ok=%v err=%v", ok, err)
	}
	// A cancelled context aborts without touching the pool.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.PushLeftCtx(canceled, 0, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("PushLeftCtx on cancelled ctx: %v", err)
	}
	if _, _, err := h.PopRightCtx(canceled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("PopRightCtx on cancelled ctx: %v", err)
	}
	if p.Len() != 0 {
		t.Fatalf("cancelled ops left %d values", p.Len())
	}
}

func TestPoolMetricsIdentities(t *testing.T) {
	p := NewPool[uint32](4, WithRouting(RouteRoundRobin),
		WithShardOptions(WithNodeSize(8)))
	h := p.Register()
	for i := uint32(0); i < 100; i++ {
		if err := h.PushLeft(uint64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if _, ok := h.PopRight(uint64(i)); !ok {
			t.Fatal("pop on non-empty pool failed")
		}
	}
	if !MetricsEnabled {
		t.Skip("obs counters compiled out")
	}
	m := p.Metrics()
	if m.Pushes() != 100 {
		t.Fatalf("merged Pushes() = %d, want 100", m.Pushes())
	}
	if m.Pops() != 40 {
		t.Fatalf("merged Pops() = %d, want 40", m.Pops())
	}
	if got := int(m.Pushes() - m.Pops()); got != p.Len() {
		t.Fatalf("pushes-pops = %d but Len = %d (quiescent identity)", got, p.Len())
	}
	if m.Handles != 4 {
		t.Fatalf("merged Handles = %d, want 4 (one per shard)", m.Handles)
	}
}

// TestPoolConcurrentConservation hammers the pool from many goroutines
// under every routing policy and checks the fundamental guarantee: every
// value pushed (and acknowledged) is popped exactly once, ErrFull and
// stealing included.
func TestPoolConcurrentConservation(t *testing.T) {
	for _, policy := range []RoutePolicy{RouteRoundRobin, RouteKeyAffinity, RouteLeastLoaded} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			const (
				workers = 8
				perW    = 2000
			)
			p := NewPool[uint32](4, WithRouting(policy),
				WithShardOptions(WithNodeSize(16), WithCapacity(512), WithMaxThreads(workers+1)))
			var (
				wg     sync.WaitGroup
				mu     sync.Mutex
				pushed = make(map[uint32]int)
				popped = make(map[uint32]int)
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := p.Register()
					myPushed := make(map[uint32]int)
					myPopped := make(map[uint32]int)
					for i := 0; i < perW; i++ {
						v := uint32(w)<<16 | uint32(i)
						key := uint64(v) * 2654435761
						switch i % 4 {
						case 0, 1: // push singles; ErrFull drops are simply not recorded
							if err := h.PushLeft(key, v); err == nil {
								myPushed[v]++
							}
						case 2:
							if x, ok := h.PopRight(key); ok {
								myPopped[x]++
							}
						case 3:
							var buf [4]uint32
							n := h.PopLeftN(key, buf[:])
							for j := 0; j < n; j++ {
								myPopped[buf[j]]++
							}
						}
					}
					h.Flush()
					mu.Lock()
					for v, c := range myPushed {
						pushed[v] += c
					}
					for v, c := range myPopped {
						popped[v] += c
					}
					mu.Unlock()
				}(w)
			}
			wg.Wait()
			// Drain the remainder.
			h := p.Register()
			var buf [64]uint32
			for {
				n := h.PopRightN(0, buf[:])
				if n == 0 {
					break
				}
				for j := 0; j < n; j++ {
					popped[buf[j]]++
				}
			}
			if p.Len() != 0 {
				t.Fatalf("drain left %d values", p.Len())
			}
			for v, c := range pushed {
				if popped[v] != c {
					t.Fatalf("value %#x pushed %d times, popped %d", v, c, popped[v])
				}
			}
			for v, c := range popped {
				if pushed[v] != c {
					t.Fatalf("value %#x popped %d times, pushed %d (invented or duplicated)", v, c, pushed[v])
				}
			}
		})
	}
}

// TestPoolStealContendedSweepBacksOff pins the steal-on-empty contention
// fix: a sweep during which any leg spent its whole Try budget
// (ErrContended) must not certify emptiness — the thief resweeps under
// jittered backoff instead of hammering full sweeps hot — and a value a
// contended shard was hiding is still found once the storm clears. The
// stealProbe seam stands in for legs whose bounded pops keep losing races.
func TestPoolStealContendedSweepBacksOff(t *testing.T) {
	p := NewPool[int](2, WithRouting(RouteKeyAffinity))
	h := p.Register()
	victimKey := keyFor(t, 2, 0)
	thiefKey := keyFor(t, 2, 1)
	if err := h.PushRight(victimKey, 41); err != nil {
		t.Fatal(err)
	}

	// With 2 shards the victim is the only non-home shard, so the probe
	// fires exactly once per sweep: the first storm sweeps all look
	// contended, then the storm clears.
	const storm = 5
	calls := 0
	h.stealProbe = func(int) error {
		calls++
		if calls <= storm {
			return ErrContended
		}
		return nil
	}
	if v, ok := h.PopLeft(thiefKey); !ok || v != 41 {
		t.Fatalf("steal through contention storm = %d, %v; want 41", v, ok)
	}
	if h.resweeps != storm {
		t.Fatalf("resweeps = %d, want %d (one backoff wait per contended sweep)",
			h.resweeps, storm)
	}
	if w := h.bo.Window(); w <= backoff.DefaultMinSpins {
		t.Fatalf("backoff window = %d after %d contended sweeps, want growth past %d",
			w, storm, backoff.DefaultMinSpins)
	}

	// Emptiness is still certified — but only by a clean sweep. The pool
	// is now empty; the probe keeps every sweep contended for another
	// storm, and ok=false must not surface until it clears.
	calls = 0
	h.stealProbe = func(int) error {
		calls++
		if calls <= storm {
			return ErrContended
		}
		return nil
	}
	before := h.resweeps
	if _, ok := h.PopLeft(thiefKey); ok {
		t.Fatal("pop on empty pool reported a value")
	}
	if got := h.resweeps - before; got != storm {
		t.Fatalf("empty pop resweeps = %d, want %d", got, storm)
	}

	// A quiet steal certifies emptiness in one sweep: no backoff waits.
	h.stealProbe = nil
	before = h.resweeps
	if _, ok := h.PopLeft(thiefKey); ok {
		t.Fatal("pop on empty pool reported a value")
	}
	if h.resweeps != before {
		t.Fatalf("uncontended empty pop backed off %d times", h.resweeps-before)
	}
}

// TestPoolStealCtxAbortsContendedStorm pins the Ctx pop behavior under a
// persistent contention storm: when every sweep stays uncertifiable, the
// context is consulted between sweeps and its error surfaces instead of
// retrying forever.
func TestPoolStealCtxAbortsContendedStorm(t *testing.T) {
	p := NewPool[int](2, WithRouting(RouteKeyAffinity))
	h := p.Register()
	thiefKey := keyFor(t, 2, 1)

	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	h.stealProbe = func(int) error {
		if calls++; calls == 3 {
			cancel()
		}
		return ErrContended // storm never clears
	}
	_, ok, err := h.PopLeftCtx(ctx, thiefKey)
	if ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("PopLeftCtx under persistent storm = ok=%v err=%v, want context.Canceled", ok, err)
	}
	if calls < 3 {
		t.Fatalf("probe saw %d sweeps before cancellation surfaced", calls)
	}
}

// TestSweepPathsDoNotAllocate pins the certify loop's closures to the
// stack: every pop that runs a probe-then-certify sweep — the relaxed and
// DEPQ pops, and a pool pop that falls back to a steal sweep — stays at
// zero heap allocations per operation once the handle is warm.
func TestSweepPathsDoNotAllocate(t *testing.T) {
	q := NewDEPQ[int](WithBands(4), WithBandBound(1))
	qh := q.Register()
	r := NewRelaxed[int](4, WithRelaxation(2))
	rh := r.Register()
	ph := NewPool[int](4).Register()
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"depq push+popmin", func() { _ = qh.Push(1, 2); qh.PopMin() }},
		{"depq push+popmax", func() { _ = qh.Push(1, 2); qh.PopMax() }},
		{"relaxed pushleft+popright", func() { _ = rh.PushLeft(1); rh.PopRight() }},
		{"pool pop on empty pool", func() { ph.PopLeft(0) }},
	} {
		if n := testing.AllocsPerRun(200, c.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
}
