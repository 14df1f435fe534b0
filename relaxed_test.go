package deque

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestRelaxedConstructionValidation(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		opts   []RelaxedOption
	}{
		{"negative d", 4, []RelaxedOption{WithRelaxation(-1)}},
		{"d beyond shards", 4, []RelaxedOption{WithRelaxation(5)}},
		{"negative bound", 4, []RelaxedOption{WithRankBound(-1)}},
		{"bound below window floor", 4, []RelaxedOption{WithRankBound(4)}}, // needs >= 4*(4-1) = 12
		{"bad pool option", 2, []RelaxedOption{WithRelaxedPool(WithRouting(RoutePolicy(99)))}},
	}
	for _, c := range cases {
		if _, err := NewRelaxedChecked[int](c.shards, c.opts...); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: err = %v, want ErrBadOption", c.name, err)
		}
	}
	// The default d=2 degrades gracefully on one shard instead of erroring.
	r := NewRelaxed[int](1)
	if r.Sample() != 1 {
		t.Fatalf("1-shard default sample = %d, want 1", r.Sample())
	}
	// Explicit d beyond the count stays an error (the caller asked for the
	// impossible), matching the Checked contract.
	if _, err := NewRelaxedChecked[int](1, WithRelaxation(2)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("explicit d>shards: err = %v, want ErrBadOption", err)
	}
	// Window accounting: seg = bound / (4*(shards-1)).
	r4 := NewRelaxed[int](4, WithRankBound(24))
	if r4.SegmentLen() != 2 {
		t.Fatalf("SegmentLen = %d, want 24/(4*3) = 2", r4.SegmentLen())
	}
	if r4.RankBound() != 24 || r4.Shards() != 4 || r4.Sample() != 2 {
		t.Fatalf("accessors = bound %d shards %d d %d", r4.RankBound(), r4.Shards(), r4.Sample())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRelaxed with a bad option did not panic")
		}
	}()
	NewRelaxed[int](4, WithRelaxation(9))
}

// TestRelaxedSequentialRankBound drives a single handle FIFO-style
// (enqueue left, dequeue right) and checks the true rank error of every
// pop — the number of still-resident older values at the moment it
// returned — against the configured bound. Sequential execution removes
// snapshot slack, so the analytic bound must hold exactly.
func TestRelaxedSequentialRankBound(t *testing.T) {
	const (
		shards = 4
		bound  = 16
		total  = 4096
	)
	r := NewRelaxed[int](shards, WithRankBound(bound))
	h := r.Register()

	popped := make([]bool, total)
	next := 0 // oldest not-yet-popped value
	inFlight := 0
	pops := 0
	for pushed := 0; pushed < total || inFlight > 0; {
		if pushed < total {
			if err := h.PushLeft(pushed); err != nil {
				t.Fatal(err)
			}
			pushed++
			inFlight++
		}
		// Interleave: pop every other step plus drain at the end.
		for drain := 0; drain < 1 || pushed == total; drain++ {
			v, ok := h.PopRight()
			if !ok {
				if pushed == total && inFlight > 0 {
					t.Fatalf("pop reported empty with %d values resident", inFlight)
				}
				break
			}
			inFlight--
			pops++
			// True rank error: older values (< v) still unpopped.
			rank := 0
			for u := next; u < v; u++ {
				if !popped[u] {
					rank++
				}
			}
			if rank > bound {
				t.Fatalf("pop %d returned %d with true rank error %d > bound %d", pops, v, rank, bound)
			}
			popped[v] = true
			for next < total && popped[next] {
				next++
			}
		}
	}
	m := r.RelaxMetrics()
	if MetricsEnabled {
		if m.Pops != total {
			t.Fatalf("recorded pops = %d, want %d", m.Pops, total)
		}
		if m.RankMax > bound {
			t.Fatalf("estimator max %d exceeds bound %d", m.RankMax, bound)
		}
	}
	if m.Shards != shards || m.RankBound != bound || m.SegLen == 0 {
		t.Fatalf("gauge snapshot = %+v", m)
	}
}

// TestRelaxedConservationConcurrent pushes a tagged value set from many
// goroutines through the relaxed front-end and pops everything back,
// checking conservation (every value exactly once) while removed nodes
// recycle — the -race pass covers the stamp protocol's interplay with
// hazard reclamation.
func TestRelaxedConservationConcurrent(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		const (
			shards  = 4
			workers = 4
			perW    = 2000
			bound   = 64
		)
		r := NewRelaxed[int](shards,
			WithRankBound(bound),
			WithRelaxedPool(WithShardOptions(
				WithMaxThreads(2*workers+1),
			)),
		)
		var wg sync.WaitGroup
		seen := make([]int32, workers*perW)
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := r.Register()
				for i := 0; i < perW; i++ {
					if err := h.PushLeft(w*perW + i); err != nil {
						t.Error(err)
						return
					}
					if i%3 == 0 {
						if v, ok := h.PopRight(); ok {
							mu.Lock()
							seen[v]++
							mu.Unlock()
						}
					}
				}
				h.Flush()
			}(w)
		}
		wg.Wait()
		// Drain the remainder single-threaded.
		h := r.Register()
		for {
			v, ok := h.PopRight()
			if !ok {
				break
			}
			seen[v]++
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("value %d popped %d times, want exactly once", v, n)
			}
		}
		if r.LenExact() != 0 || r.Len() != 0 {
			t.Fatalf("relaxed pool not empty after drain: exact=%d est=%d", r.LenExact(), r.Len())
		}
		if MetricsEnabled {
			if m := r.RelaxMetrics(); m.RankMax > bound {
				t.Fatalf("estimator max %d exceeds bound %d", m.RankMax, bound)
			}
		}
	})
}

func TestRelaxedStrictModeDelegates(t *testing.T) {
	r := NewRelaxed[int](4, WithRelaxation(0))
	h := r.Register()
	for i := 0; i < 64; i++ {
		if err := h.PushLeft(i); err != nil {
			t.Fatal(err)
		}
	}
	// Strict mode routes through the pool with key 0 (default rr policy):
	// conservation holds and nothing records a rank estimate.
	got := make(map[int]bool)
	for i := 0; i < 64; i++ {
		v, ok := h.PopRight()
		if !ok {
			t.Fatalf("pop %d reported empty", i)
		}
		got[v] = true
	}
	if len(got) != 64 {
		t.Fatalf("popped %d distinct values, want 64", len(got))
	}
	if _, ok := h.PopRight(); ok {
		t.Fatal("pop after drain must report empty")
	}
	m := r.RelaxMetrics()
	if m.Pops != 0 || m.RankMax != 0 {
		t.Fatalf("strict mode recorded relaxation: %+v", m)
	}
	if m.Sample != 0 {
		t.Fatalf("strict mode Sample gauge = %d, want 0", m.Sample)
	}
}

func TestRelaxedBatchAndCtx(t *testing.T) {
	r := NewRelaxed[int](2, WithRankBound(8))
	h := r.Register()
	vs := []int{1, 2, 3, 4, 5}
	n, err := h.PushRightN(vs)
	if err != nil || n != 5 {
		t.Fatalf("PushRightN = (%d, %v), want (5, nil)", n, err)
	}
	dst := make([]int, 8)
	got := 0
	for got < 5 {
		k := h.PopLeftN(dst[got:])
		if k == 0 {
			t.Fatalf("PopLeftN drained only %d of 5", got)
		}
		got += k
	}
	if h.PopLeftN(dst) != 0 {
		t.Fatal("PopLeftN on empty must return 0")
	}

	ctx, cancel := context.WithCancel(context.Background())
	if err := h.PushLeftCtx(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := h.PopRightCtx(ctx); err != nil || !ok || v != 9 {
		t.Fatalf("PopRightCtx = (%d, %v, %v), want (9, true, nil)", v, ok, err)
	}
	cancel()
	if _, _, err := h.PopRightCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PopRightCtx after cancel: err = %v, want context.Canceled", err)
	}
	if err := h.PushLeftCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		// Push on an uncontended shard may legitimately complete before
		// noticing cancellation; accept either outcome but not a hang.
		if err != nil {
			t.Fatalf("PushLeftCtx after cancel: %v", err)
		}
	}
}

func TestRelaxedViews(t *testing.T) {
	r := NewRelaxed[string](2)
	h := r.Register()

	st := h.StackView()
	if err := st.Push("a"); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Pop(); !ok || v != "a" {
		t.Fatalf("stack Pop = (%q, %v), want (a, true)", v, ok)
	}

	q := h.QueueView()
	for _, s := range []string{"x", "y"} {
		if err := q.Enqueue(s); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, ok := q.Dequeue()
		if !ok {
			t.Fatalf("queue Dequeue %d reported empty", i)
		}
		seen[v] = true
	}
	if !seen["x"] || !seen["y"] {
		t.Fatalf("queue lost values: %v", seen)
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("Dequeue after drain must report empty")
	}
	q.Flush()
	st.Flush()
}

// TestRelaxedBlockedIsNotEmpty pins "blocked ≠ empty" for the relaxed
// pop. With 2 shards and rank bound 4 the pop window is 1. Shard 1 has
// served two pops; shard 0 holds a leaked push reservation, so it looks
// resident with no pops, and shard 1's next pop would run 2 ahead of
// that laggard: window-blocked. PopLeftCtx must surface ctx.Err() at its
// deadline, never ok=false. Once the leak is undone, the same pop
// certifies empty in one sweep.
func TestRelaxedBlockedIsNotEmpty(t *testing.T) {
	r := NewRelaxed[int](2, WithRankBound(4))
	if r.SegmentLen() != 1 {
		t.Fatalf("SegmentLen = %d, want 1", r.SegmentLen())
	}
	h := r.Register()
	r.stamps.AddPush(1, 2)
	r.stamps.AddPop(1, 2)
	r.stamps.AddPush(0, 1) // a push that reserved its stamp and never landed

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, ok, err := h.PopLeftCtx(ctx); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked pop = ok %v err %v, want context.DeadlineExceeded", ok, err)
	}
	if h.ph.resweeps == 0 {
		t.Fatal("blocked sweeps were not retried")
	}

	r.stamps.UndoPush(0)
	before := h.ph.resweeps
	if _, ok, err := h.PopLeftCtx(context.Background()); ok || err != nil {
		t.Fatalf("pop after undo = ok %v err %v, want certified empty", ok, err)
	}
	if got := h.ph.resweeps - before; got != 0 {
		t.Fatalf("empty pop took %d resweeps, want one sweep", got)
	}
}
