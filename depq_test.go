package deque

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestDEPQConstructionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []DEPQOption
	}{
		{"zero bands", []DEPQOption{WithBands(0)}},
		{"negative bands", []DEPQOption{WithBands(-4)}},
		{"negative bound", []DEPQOption{WithBands(4), WithBandBound(-1)}},
		{"bound beyond bands", []DEPQOption{WithBands(4), WithBandBound(4)}},
		{"zero choice", []DEPQOption{WithBandChoice(0)}},
		{"bad pool option", []DEPQOption{WithDEPQPool(WithRouting(RoutePolicy(99)))}},
	}
	for _, c := range cases {
		if _, err := NewDEPQChecked[int](c.opts...); !errors.Is(err, ErrBadOption) {
			t.Fatalf("%s: err = %v, want ErrBadOption", c.name, err)
		}
	}
	q := NewDEPQ[int]()
	if q.Bands() != 8 || q.Choice() != 2 || q.Bounded() || q.BandBound() != 7 {
		t.Fatalf("defaults = bands %d choice %d bounded %v bound %d, want 8 2 false 7",
			q.Bands(), q.Choice(), q.Bounded(), q.BandBound())
	}
	q4 := NewDEPQ[int](WithBands(4), WithBandBound(1), WithBandChoice(3))
	if q4.Bands() != 4 || !q4.Bounded() || q4.BandBound() != 1 || q4.Choice() != 3 {
		t.Fatalf("accessors = bands %d bounded %v bound %d choice %d",
			q4.Bands(), q4.Bounded(), q4.BandBound(), q4.Choice())
	}
	if q4.Pool() == nil || q4.Pool().Shards() != 4 {
		t.Fatal("DEPQ pool must have one shard per band")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDEPQ with a bad option did not panic")
		}
	}()
	NewDEPQ[int](WithBands(4), WithBandBound(9))
}

// TestDEPQStrictSequential drives one handle with WithBandBound(0) — a
// strict priority queue — and checks the full semantic contract without
// concurrency: PopMin serves strictly ascending bands with FIFO order
// inside each band, PopMax serves strictly descending bands with LIFO
// order inside each band, and every recorded inversion is zero.
func TestDEPQStrictSequential(t *testing.T) {
	const bands = 8
	q := NewDEPQ[int](WithBands(bands), WithBandBound(0))
	h := q.Register()

	// Two values per band, tagged value = band*100 + seq.
	for seq := 0; seq < 2; seq++ {
		for b := 0; b < bands; b++ {
			if err := h.Push(b*100+seq, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if q.LenExact() != 2*bands {
		t.Fatalf("LenExact = %d, want %d", q.LenExact(), 2*bands)
	}
	// PopMin: band order ascending, FIFO (seq 0 before seq 1) within band.
	for b := 0; b < bands/2; b++ {
		for seq := 0; seq < 2; seq++ {
			v, prio, ok := h.PopMin()
			if !ok || prio != b || v != b*100+seq {
				t.Fatalf("PopMin = (%d, %d, %v), want (%d, %d, true)", v, prio, ok, b*100+seq, b)
			}
		}
	}
	// PopMax on the remaining high half: band order descending, LIFO
	// (seq 1, the newest, before seq 0) within band.
	for b := bands - 1; b >= bands/2; b-- {
		for seq := 1; seq >= 0; seq-- {
			v, prio, ok := h.PopMax()
			if !ok || prio != b || v != b*100+seq {
				t.Fatalf("PopMax = (%d, %d, %v), want (%d, %d, true)", v, prio, ok, b*100+seq, b)
			}
		}
	}
	if _, _, ok := h.PopMin(); ok {
		t.Fatal("PopMin after drain must report empty")
	}
	if _, _, ok := h.PopMax(); ok {
		t.Fatal("PopMax after drain must report empty")
	}
	m := q.DepqMetrics()
	if MetricsEnabled {
		if m.Pops() != 2*bands || m.PopMins != bands || m.PopMaxes != bands {
			t.Fatalf("recorded pops = %+v, want %d min + %d max", m, bands, bands)
		}
		if m.InvMax != 0 || m.InvSum != 0 {
			t.Fatalf("strict bound recorded inversion: max %d sum %d", m.InvMax, m.InvSum)
		}
	}
	if m.Bands != bands || m.BandBound != 0 || m.Choice != 2 {
		t.Fatalf("gauge snapshot = %+v", m)
	}
}

// TestDEPQPriorityClamp checks that out-of-range priorities clamp into
// [0, bands) instead of erroring — the admission contract cmd/schedd
// relies on.
func TestDEPQPriorityClamp(t *testing.T) {
	q := NewDEPQ[string](WithBands(4))
	h := q.Register()
	if err := h.Push("low", -7); err != nil {
		t.Fatal(err)
	}
	if err := h.Push("high", 99); err != nil {
		t.Fatal(err)
	}
	if v, prio, ok := h.PopMin(); !ok || prio != 0 || v != "low" {
		t.Fatalf("PopMin = (%q, %d, %v), want (low, 0, true)", v, prio, ok)
	}
	if v, prio, ok := h.PopMax(); !ok || prio != 3 || v != "high" {
		t.Fatalf("PopMax = (%q, %d, %v), want (high, 3, true)", v, prio, ok)
	}
}

// TestDEPQFullUndoesReservation checks the ErrFull path returns the band
// stamp: after a rejected push the band must not look resident, or every
// later bounded pop near it would block forever.
func TestDEPQFullUndoesReservation(t *testing.T) {
	q := NewDEPQ[int](WithBands(2), WithBandBound(0),
		WithDEPQPool(WithShardOptions(WithCapacity(1))))
	h := q.Register()
	if err := h.Push(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Push(2, 0); !errors.Is(err, ErrFull) {
		t.Fatalf("push past capacity: err = %v, want ErrFull", err)
	}
	if err := h.Push(3, 1); err != nil {
		t.Fatal(err)
	}
	// Band 0 holds exactly one value; the failed push must not have left a
	// phantom resident that would strict-block PopMax on band 1.
	if v, prio, ok := h.PopMax(); !ok || prio != 1 || v != 3 {
		t.Fatalf("PopMax = (%d, %d, %v), want (3, 1, true)", v, prio, ok)
	}
	if v, prio, ok := h.PopMin(); !ok || prio != 0 || v != 1 {
		t.Fatalf("PopMin = (%d, %d, %v), want (1, 0, true)", v, prio, ok)
	}
	if q.LenExact() != 0 {
		t.Fatalf("LenExact = %d after drain, want 0", q.LenExact())
	}
}

// TestDEPQConservationConcurrent pushes a tagged value set from many
// goroutines with mixed priorities and pops from both ends, checking
// conservation (every value exactly once) and the inversion bound while
// removed nodes recycle — the -race pass covers the band stamp protocol's
// interplay with hazard reclamation.
func TestDEPQConservationConcurrent(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		const (
			bands   = 8
			bound   = 2
			workers = 4
			perW    = 2000
		)
		q := NewDEPQ[int](WithBands(bands), WithBandBound(bound),
			WithDEPQPool(WithShardOptions(
				WithMaxThreads(2*workers+1),
			)))
		var wg sync.WaitGroup
		seen := make([]int32, workers*perW)
		var mu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := q.Register()
				for i := 0; i < perW; i++ {
					v := w*perW + i
					if err := h.Push(v, v%bands); err != nil {
						t.Error(err)
						return
					}
					if i%3 == 0 {
						// Alternate ends: half the poppers serve urgency,
						// half shed.
						var (
							u  int
							ok bool
						)
						if i%6 == 0 {
							u, _, ok = h.PopMin()
						} else {
							u, _, ok = h.PopMax()
						}
						if ok {
							mu.Lock()
							seen[u]++
							mu.Unlock()
						}
					}
				}
				h.Flush()
			}(w)
		}
		wg.Wait()
		// Drain the remainder single-threaded, alternating ends.
		h := q.Register()
		for i := 0; ; i++ {
			var (
				v  int
				ok bool
			)
			if i%2 == 0 {
				v, _, ok = h.PopMin()
			} else {
				v, _, ok = h.PopMax()
			}
			if !ok {
				if _, _, ok := h.PopMin(); ok {
					t.Fatal("one end certified empty while the other still held work")
				}
				break
			}
			seen[v]++
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("value %d popped %d times, want exactly once", v, n)
			}
		}
		if q.LenExact() != 0 || q.Len() != 0 {
			t.Fatalf("DEPQ not empty after drain: exact=%d est=%d", q.LenExact(), q.Len())
		}
		if MetricsEnabled {
			if m := q.DepqMetrics(); m.InvMax > bound {
				t.Fatalf("estimator max %d exceeds bound %d", m.InvMax, bound)
			}
		}
	})
}

// TestDEPQSequentialInversionBound checks the estimator's ground truth
// in the absence of concurrency: with no in-flight reservations the
// stamp-derived residency is exact, so the TRUE inversion of every pop —
// band distance to the nearest resident band on the urgent (PopMin) or
// shed (PopMax) side, computed from an independently tracked per-band
// count — must respect the configured bound, and the estimator must
// agree.
func TestDEPQSequentialInversionBound(t *testing.T) {
	const (
		bands = 8
		bound = 1
	)
	q := NewDEPQ[int](WithBands(bands), WithBandBound(bound))
	h := q.Register()
	cnt := make([]int, bands) // ground-truth per-band resident count
	for i := 0; i < 256; i++ {
		b := (i * 7) % bands
		if err := h.Push(i, b); err != nil {
			t.Fatal(err)
		}
		cnt[b]++
	}
	lowest := func() int {
		for b := 0; b < bands; b++ {
			if cnt[b] > 0 {
				return b
			}
		}
		return -1
	}
	highest := func() int {
		for b := bands - 1; b >= 0; b-- {
			if cnt[b] > 0 {
				return b
			}
		}
		return -1
	}
	for i := 0; i < 128; i++ {
		lo := lowest()
		if _, prio, ok := h.PopMin(); !ok {
			t.Fatal("PopMin reported empty early")
		} else if inv := prio - lo; inv < 0 || inv > bound {
			t.Fatalf("PopMin took band %d with lowest resident %d: true inversion %d outside [0, %d]",
				prio, lo, inv, bound)
		} else {
			cnt[prio]--
		}
		hi := highest()
		if _, prio, ok := h.PopMax(); !ok {
			t.Fatal("PopMax reported empty early")
		} else if inv := hi - prio; inv < 0 || inv > bound {
			t.Fatalf("PopMax took band %d with highest resident %d: true inversion %d outside [0, %d]",
				prio, hi, inv, bound)
		} else {
			cnt[prio]--
		}
	}
	if MetricsEnabled {
		if m := q.DepqMetrics(); m.InvMax > bound {
			t.Fatalf("estimator max %d exceeds bound %d", m.InvMax, bound)
		}
	}
}

func TestDEPQCtx(t *testing.T) {
	q := NewDEPQ[int](WithBands(2))
	h := q.Register()
	ctx, cancel := context.WithCancel(context.Background())
	if err := h.PushCtx(ctx, 9, 1); err != nil {
		t.Fatal(err)
	}
	if v, prio, ok, err := h.PopMinCtx(ctx); err != nil || !ok || v != 9 || prio != 1 {
		t.Fatalf("PopMinCtx = (%d, %d, %v, %v), want (9, 1, true, nil)", v, prio, ok, err)
	}
	cancel()
	if _, _, _, err := h.PopMaxCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("PopMaxCtx after cancel: err = %v, want context.Canceled", err)
	}
	if err := h.PushCtx(ctx, 1, 0); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("PushCtx after cancel: %v", err)
	}
}

// TestDEPQBlockedIsNotEmpty pins "blocked ≠ empty" for both pop ends. A
// push reservation leaked on the band nearest the popping end makes that
// band look resident, so under a strict bound every other band's pop
// reservation is bound-blocked, and no sweep can certify emptiness: the
// Ctx pop must surface ctx.Err() at its deadline, never ok=false. Once
// the leak is undone, the same pop certifies empty in one sweep.
func TestDEPQBlockedIsNotEmpty(t *testing.T) {
	for _, low := range []bool{true, false} {
		q := NewDEPQ[int](WithBands(4), WithBandBound(0))
		h := q.Register()
		pop := h.PopMaxCtx
		if low {
			pop = h.PopMinCtx
		}
		edge := q.edgeBand(0, low)
		q.stamps.AddPush(edge, 1) // a push that reserved its stamp and never landed

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, _, ok, err := pop(ctx)
		cancel()
		if ok || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("low=%v: blocked pop = ok %v err %v, want context.DeadlineExceeded", low, ok, err)
		}
		if h.ph.resweeps == 0 {
			t.Fatalf("low=%v: blocked sweeps were not retried", low)
		}

		q.stamps.UndoPush(edge)
		before := h.ph.resweeps
		if _, prio, ok, err := pop(context.Background()); ok || err != nil || prio != -1 {
			t.Fatalf("low=%v: pop after undo = (prio %d, ok %v, err %v), want certified empty", low, prio, ok, err)
		}
		if got := h.ph.resweeps - before; got != 0 {
			t.Fatalf("low=%v: empty pop took %d resweeps, want one sweep", low, got)
		}
	}
}
