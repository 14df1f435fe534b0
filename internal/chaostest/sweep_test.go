//go:build chaos

package chaostest

import (
	"flag"
	"strconv"
	"strings"
	"sync"
	"testing"

	dq "repro"
	"repro/internal/chaos"
	"repro/internal/core"
)

// chaosSeeds lets scripts/chaos.sh sweep externally chosen seeds:
// go test -tags chaos -run Sweep -chaos.seeds=1,2,3 ./internal/chaostest
var chaosSeeds = flag.String("chaos.seeds", "", "comma-separated schedule seeds to sweep (default: built-in set)")

func seeds(t *testing.T) []uint64 {
	if *chaosSeeds == "" {
		return []uint64{1, 42, 0xDEADBEEF, 0x5EED5EED}
	}
	var out []uint64
	for _, f := range strings.Split(*chaosSeeds, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 0, 64)
		if err != nil {
			t.Fatalf("bad -chaos.seeds entry %q: %v", f, err)
		}
		out = append(out, n)
	}
	return out
}

// failEverywhere builds a schedule that forces failures at every named
// point with a seeded probability. Probabilistic (not periodic) forcing is
// deliberate: a fixed cadence resonates with retry loops that revisit a
// point a fixed number of times per attempt — e.g. FailEvery=2 at Oracle
// starves any walk needing two consecutive successful hops forever —
// whereas per-visit pseudo-random decisions always let a retry through
// eventually, while still being exactly reproducible per seed.
func failEverywhere(seed uint64) *chaos.Schedule {
	s := chaos.NewSchedule(seed)
	for i, p := range chaos.AllPoints() {
		r := chaos.Rule{FailProb: 0.20 + float64((seed+uint64(i))%3)*0.05}
		if p == chaos.Oracle || p == chaos.H {
			// High-frequency points also get a small seeded delay, jittering
			// the interleaving between forced failures.
			r.DelaySpins = 64
		}
		s.Set(p, r)
	}
	return s
}

// driveAllStates runs a single-threaded op pattern over a tiny-node core
// deque that reaches every transition class: interior pushes and pops (L1,
// L2, E1), border crossings in both directions (L3, L6 on the way out; L4,
// L5, L7, E2, E3 on the way back), plus hint publishes and oracle walks on
// every operation. Forced failures perturb the path but every op completes,
// so the pattern is self-restoring. Returns the number of values resident
// when done (always 0: the pattern is balanced and over-pops).
func driveAllStates(t *testing.T, d *core.Deque, h *core.Handle, rounds int) {
	v := uint32(1)
	expect := 0
	// A push that needs a fresh node can get a forced RegistryAlloc failure
	// and surface ErrFull — graceful degradation, not a bug. The schedule's
	// cadence is >= 2, so an immediate retry allocates; anything else is a
	// real failure.
	push := func(r int, f func(*core.Handle, uint32) error) {
		for a := 0; ; a++ {
			err := f(h, v)
			if err == nil {
				v++
				expect++
				return
			}
			if err != core.ErrFull || a >= 16 {
				t.Fatalf("round %d: push: %v (attempt %d)", r, err, a+1)
			}
		}
	}
	popL := func() {
		if _, ok := d.PopLeft(h); ok {
			expect--
		}
	}
	popR := func() {
		if _, ok := d.PopRight(h); ok {
			expect--
		}
	}
	pushL := func() { push(0, d.PushLeft) }
	pushR := func() { push(0, d.PushRight) }
	for r := 0; r < rounds; r++ {
		// Bulk growth and drain on each side: interior pushes/pops (L1, L2),
		// appends (L6), and the seal/remove/boundary progression on the way
		// back (L5, L7, L4), overshooting into empty (E1).
		for i := 0; i < 7; i++ {
			pushL()
		}
		for i := 0; i < 9; i++ {
			popL()
		}
		for i := 0; i < 7; i++ {
			pushR()
		}
		for i := 0; i < 9; i++ {
			popR()
		}
		// Straddling push (L3): append a node, pop it empty again, then push
		// while the empty neighbor is still linked — the push lands in the
		// neighbor's innermost slot.
		pushL()
		pushL()
		popL()
		pushL()
		popL()
		popL()
		popL()
		pushR()
		pushR()
		popR()
		pushR()
		popR()
		popR()
		popR()
		// Straddling empty check (E2): drain cross-side so the edge slot
		// reads the other side's null while the empty neighbor is linked,
		// then pop into the straddle.
		pushL()
		pushL()
		popR()
		popL()
		popL()
		popL()
		pushR()
		pushR()
		popL()
		popR()
		popR()
		popR()
		// Boundary empty check (E3): a cross-side pop leaves the other
		// side's null in the outermost data slot with no neighbor; the next
		// same-side pop confirms empty at the boundary.
		pushL()
		popR()
		popL()
		pushR()
		popL()
		popR()
		if expect != 0 {
			t.Fatalf("round %d: drove %d values unaccounted", r, expect)
		}
		if got := d.Len(); got != 0 {
			t.Fatalf("round %d: Len = %d after balanced round", r, got)
		}
	}
}

// TestSeededSweepCoverage is the acceptance gate for the injection-point
// wiring: for each seed, a schedule forcing periodic failures at every named
// point must observe at least one visit AND at least one forced failure at
// every point — proving every labeled CAS, re-read, publish, walk step,
// cache read, and allocation actually flows through chaos.Visit — while
// every operation still completes and the deque stays consistent.
func TestSeededSweepCoverage(t *testing.T) {
	for _, seed := range seeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			// Construct before arming: a forced RegistryAlloc failure during
			// construction (where there is no caller to hand ErrFull to)
			// would panic, and that interleaving is unreachable in real use.
			d := core.New(core.Config{NodeSize: core.MinNodeSize, MaxThreads: 4})
			h := d.Register()
			g := dq.New[int](dq.WithNodeSize(8))
			gh := g.Register()

			s := failEverywhere(seed)
			chaos.Arm(s)
			defer chaos.Disarm()

			// Core driver: all transition, empty-check, hint, oracle, cache
			// and registry-allocation points, and the reclamation layer's:
			// forced Retire failures defer batches and forced PoolGet
			// failures miss the pool — both degrade to fresh allocation or
			// later reclamation, never to lost values.
			driveAllStates(t, d, h, 40)
			h.Drain()
			if err := d.CheckInvariant(); err != nil {
				t.Fatalf("invariant after sweep: %v", err)
			}

			// Generic layer: the slab-allocation point. Forced SlabAlloc
			// failures surface as ErrFull and must not lose values.
			pushed := 0
			for i := 0; i < 32; i++ {
				err := gh.PushRight(i)
				if err == nil {
					pushed++
				} else if err != dq.ErrFull {
					t.Fatalf("generic push: %v", err)
				}
			}
			for i := 0; i < pushed; i++ {
				if _, ok := gh.PopLeft(); !ok {
					t.Fatalf("generic deque lost values: popped %d of %d", i, pushed)
				}
			}

			chaos.Disarm()
			for _, p := range chaos.AllPoints() {
				st := s.Stats(p)
				if st.Visits == 0 {
					t.Errorf("point %v: never visited", p)
				}
				if st.Failures == 0 {
					t.Errorf("point %v: visited %d times, no failure forced", p, st.Visits)
				}
			}
		})
	}
}

// TestChaosConservationConcurrent runs a concurrent mixed workload — singles
// and batches, both ends, through the public generic API — under a
// fail-everywhere schedule and checks conservation: every value whose push
// reported success is popped exactly once, every value whose push reported
// ErrFull is never seen, nothing is invented.
func TestChaosConservationConcurrent(t *testing.T) {
	for _, seed := range seeds(t) {
		t.Run("seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
			d := dq.New[uint64](dq.WithNodeSize(4), dq.WithMaxThreads(16))
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
					h := d.Register()
					defer h.Flush()
					seq := uint64(0)
					newv := func() uint64 {
						seq++
						return uint64(w+1)<<32 | seq
					}
					vs := make([]uint64, 3)
					dst := make([]uint64, 4)
					for i := 0; i < iters; i++ {
						switch i % 7 {
						case 0:
							if v := newv(); h.PushLeft(v) == nil {
								pushedOK[w] = append(pushedOK[w], v)
							}
						case 1:
							if v := newv(); h.PushRight(v) == nil {
								pushedOK[w] = append(pushedOK[w], v)
							}
						case 2, 3:
							for j := range vs {
								vs[j] = newv()
							}
							var n int
							if i%7 == 2 {
								n, _ = h.PushLeftN(vs)
							} else {
								n, _ = h.PushRightN(vs)
							}
							pushedOK[w] = append(pushedOK[w], vs[:n]...)
						case 4:
							if v, ok := h.PopLeft(); ok {
								popped[w] = append(popped[w], v)
							}
						case 5:
							if v, ok := h.PopRight(); ok {
								popped[w] = append(popped[w], v)
							}
						case 6:
							n := h.PopLeftN(dst)
							popped[w] = append(popped[w], dst[:n]...)
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
			h := d.Register()
			for {
				v, ok := h.PopLeft()
				if !ok {
					break
				}
				recover(v)
			}
			if len(want) != 0 {
				t.Fatalf("%d successfully pushed values lost (e.g. missing one of %v)", len(want), firstKey(want))
			}
		})
	}
}

func firstKey(m map[uint64]bool) uint64 {
	for k := range m {
		return k
	}
	return 0
}
