//go:build chaos

package chaostest

import (
	"strconv"
	"sync"
	"testing"

	dq "repro"
	"repro/internal/chaos"
)

// TestDEPQConservationChaos runs a concurrent priority workload through
// the DEPQ under a fail-everywhere schedule and checks conservation:
// every job whose Push reported success pops exactly once — from either
// end — nothing is invented, nothing is lost. Forced ErrFull failures
// exercise the UndoPush path; chaotic pop interleavings exercise
// ReserveBandPop claim-then-undo against concurrent stamp motion.
func TestDEPQConservationChaos(t *testing.T) {
	for _, seed := range seeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			const (
				bands = 6
				bound = 2
			)
			q := dq.NewDEPQ[uint64](
				dq.WithBands(bands),
				dq.WithBandBound(bound),
				dq.WithDEPQPool(dq.WithShardOptions(
					dq.WithNodeSize(4), dq.WithMaxThreads(16),
				)),
			)
			s := failEverywhere(seed)
			chaos.Arm(s)
			defer chaos.Disarm()

			const workers = 4
			iters := 600
			if testing.Short() {
				iters = 150
			}
			pushedOK := make([][]uint64, workers)
			popped := make([][]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := q.Register()
					defer h.Flush()
					seq := uint64(0)
					for i := 0; i < iters; i++ {
						switch i % 4 {
						case 0, 1:
							seq++
							v := uint64(w+1)<<32 | seq
							prio := int(seq+uint64(w)) % bands
							if h.Push(v, prio) == nil {
								pushedOK[w] = append(pushedOK[w], v)
							}
						case 2:
							if v, _, ok := h.PopMin(); ok {
								popped[w] = append(popped[w], v)
							}
						case 3:
							if v, _, ok := h.PopMax(); ok {
								popped[w] = append(popped[w], v)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			chaos.Disarm()

			want := make(map[uint64]bool)
			for _, vs := range pushedOK {
				for _, v := range vs {
					if want[v] {
						t.Fatalf("value %#x pushed-ok twice", v)
					}
					want[v] = true
				}
			}
			recover := func(v uint64) {
				if !want[v] {
					t.Fatalf("value %#x popped but never successfully pushed", v)
				}
				delete(want, v)
			}
			for _, vs := range popped {
				for _, v := range vs {
					recover(v)
				}
			}
			h := q.Register()
			for {
				v, _, ok := h.PopMin()
				if !ok {
					break
				}
				recover(v)
			}
			if len(want) != 0 {
				t.Fatalf("%d successfully pushed jobs lost (e.g. %#x)", len(want), firstKey(want))
			}
			if got := q.LenExact(); got != 0 {
				t.Fatalf("DEPQ reports %d resident after full drain", got)
			}
		})
	}
}

// TestDEPQInversionBoundChaos drives a mixed submit/serve workload
// through a bounded DEPQ under chaos schedules and gates the observed
// priority inversion against the configured bound: the reservation
// windows must hold even when forced failures undo pushes mid-stamp and
// retry pops across bands.
func TestDEPQInversionBoundChaos(t *testing.T) {
	if !dq.MetricsEnabled {
		t.Skip("inversion recording compiled out (obsoff)")
	}
	for _, seed := range seeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			const (
				bands = 8
				bound = 2
			)
			q := dq.NewDEPQ[uint64](
				dq.WithBands(bands),
				dq.WithBandBound(bound),
				dq.WithDEPQPool(dq.WithShardOptions(
					dq.WithNodeSize(4), dq.WithMaxThreads(16),
				)),
			)
			s := failEverywhere(seed)
			chaos.Arm(s)
			defer chaos.Disarm()

			const workers = 4
			iters := 800
			if testing.Short() {
				iters = 200
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := q.Register()
					defer h.Flush()
					v := uint64(w+1) << 32
					for i := 0; i < iters; i++ {
						v++
						// Ignore ErrFull (forced alloc failures): the band
						// stamp is undone and the bound unaffected.
						_ = h.Push(v, i%bands)
						if i%2 == 1 {
							if i%8 == 7 {
								h.PopMax()
							} else {
								h.PopMin()
							}
						}
					}
				}(w)
			}
			wg.Wait()
			// Drain the backlog so late pops (emptiest bands) count too.
			h := q.Register()
			for {
				if _, _, ok := h.PopMin(); !ok {
					break
				}
			}
			chaos.Disarm()

			m := q.DepqMetrics()
			if m.Pops() == 0 {
				t.Fatal("no pops recorded an inversion estimate")
			}
			if m.InvMax > bound {
				t.Fatalf("observed priority inversion %d exceeds configured bound %d (mean %.2f over %d pops)",
					m.InvMax, bound, m.MeanInv(), m.Pops())
			}
		})
	}
}
