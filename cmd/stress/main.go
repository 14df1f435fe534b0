// Command stress runs long-duration validation campaigns against any
// structure in the registry: conservation stress (no lost, duplicated, or
// invented values) and linearizability checking of many small recorded
// histories.
//
// Examples:
//
//	stress -structure of -mode conservation -workers 8 -duration 10s
//	stress -structure of-elim -mode lincheck -histories 5000
//	stress -mode cancel -workers 8 -duration 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dq "repro"
	"repro/internal/bench"
	"repro/internal/lincheck"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// metricsFlag gates the end-of-run transition-mix report; printMetrics
// renders it for any structure wired into the observability layer.
var metricsFlag *bool

func printMetrics(m obs.Metrics) {
	d := m.Derive()
	fmt.Printf("metrics: ops=%d pushes=%d pops=%d empty=%d\n",
		m.Ops(), m.Pushes(), m.Pops(), m.EmptyPops())
	fmt.Printf("metrics: L=%v failL=%v E=%v\n", m.Transitions, m.TransitionFails, m.Empties)
	fmt.Printf("metrics: straddle=%.4f seal=%.6f casfail=%.4f hops/op=%.4f elim=%.4f cachehit=%.4f\n",
		d.StraddleRatio, d.SealRate, d.CASFailureRatio, d.MeanOracleHops, d.ElimRate, d.EdgeCacheHitRate)
	fmt.Printf("metrics: handles=%d nodes: alloc=%d freed=%d live=%d\n",
		m.Handles, m.NodesAllocated, m.NodesFreed, m.NodesLive)
}

func main() {
	var (
		structure = flag.String("structure", "of", "structure under test: "+strings.Join(bench.StructureNames(), ", "))
		mode      = flag.String("mode", "conservation", "conservation, lincheck, or cancel")
		workers   = flag.Int("workers", 8, "concurrent workers")
		duration  = flag.Duration("duration", 5*time.Second, "conservation: run length")
		histories = flag.Int("histories", 2000, "lincheck: number of small histories")
		opsPer    = flag.Int("ops", 5, "lincheck: ops per worker per history")
		seed      = flag.Uint64("seed", uint64(time.Now().UnixNano()), "RNG seed")
	)
	metricsFlag = flag.Bool("metrics", false,
		"after the run, print the observability layer's transition mix (of* structures and cancel mode)")
	flag.Parse()

	if *mode == "cancel" {
		// Cancellation stress runs against the deque's own Ctx/Try API, not
		// the registry's common Session interface.
		if cancelStress(*workers, *duration, *seed) {
			fmt.Println("cancel: PASS")
			return
		}
		fmt.Println("cancel: FAIL")
		os.Exit(1)
	}

	factory, err := bench.Lookup(*structure)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch *mode {
	case "conservation":
		if conservation(factory, *workers, *duration, *seed) {
			fmt.Println("conservation: PASS")
			return
		}
		fmt.Println("conservation: FAIL")
		os.Exit(1)
	case "lincheck":
		if linearizability(factory, *workers, *histories, *opsPer, *seed) {
			fmt.Println("lincheck: PASS")
			return
		}
		fmt.Println("lincheck: FAIL")
		os.Exit(1)
	default:
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
}

// conservation hammers the structure and verifies every value pushed is
// popped at most once and only after being pushed. Residue is checked by
// draining at the end.
func conservation(factory bench.Factory, workers int, d time.Duration, seed uint64) bool {
	inst := factory(workers + 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	states := make([]conservationState, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Label the worker for pprof, so CPU profiles slice by role.
			obs.Do("conservation", w, func() { conservationWorker(inst, w, seed, &stop, &states[w]) })
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	// Drain the residue.
	s := inst.Session()
	var residue int
	for {
		if _, ok := s.PopLeft(); !ok {
			break
		}
		residue++
	}
	seen := make(map[uint32]bool)
	totalPushed, totalPopped := uint64(0), 0
	for w := range states {
		totalPushed += states[w].pushed
		for _, v := range states[w].popped {
			if seen[v] {
				fmt.Printf("value %#x popped twice\n", v)
				return false
			}
			seen[v] = true
			totalPopped++
		}
	}
	fmt.Printf("pushed=%d popped=%d residue=%d\n", totalPushed, totalPopped, residue)
	if *metricsFlag {
		if mp, ok := inst.(bench.MetricsProvider); ok {
			printMetrics(mp.Metrics())
		} else {
			fmt.Println("metrics: structure does not export observability metrics")
		}
	}
	return uint64(totalPopped)+uint64(residue) == totalPushed
}

// conservationState accumulates one conservation worker's observations.
type conservationState struct {
	pushed uint64
	popped []uint32
}

// conservationWorker is one conservation-stress worker's loop.
func conservationWorker(inst bench.Instance, w int, seed uint64, stop *atomic.Bool, st *conservationState) {
	s := inst.Session()
	rng := xrand.NewXoshiro256(seed + uint64(w)*977)
	var i uint32
	for !stop.Load() {
		id := uint32(w)<<24 | (i & 0x00FFFFFF)
		switch rng.Intn(4) {
		case 0:
			s.PushLeft(id)
			st.pushed++
			i++
		case 1:
			s.PushRight(id)
			st.pushed++
			i++
		case 2:
			if v, ok := s.PopLeft(); ok {
				st.popped = append(st.popped, v)
			}
		case 3:
			if v, ok := s.PopRight(); ok {
				st.popped = append(st.popped, v)
			}
		}
	}
}

// cancelStress hammers the cancellable (*Ctx) and bounded (Try*) operation
// variants with aggressive deadlines and tiny attempt budgets, and verifies
// that abort semantics are exact under real contention: an operation that
// returned a context error or ErrContended had no effect, so conservation
// holds when only nil-error pushes are counted and every popped value must
// come from that set.
func cancelStress(workers int, d time.Duration, seed uint64) bool {
	deq := dq.NewUint32(dq.WithNodeSize(8), dq.WithMaxThreads(workers+1))
	var stop atomic.Bool
	var wg sync.WaitGroup
	type wstate struct {
		pushedOK []uint32
		popped   []uint32
		aborts   uint64
	}
	states := make([]wstate, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := deq.Register()
			rng := xrand.NewXoshiro256(seed + uint64(w)*977)
			var i uint32
			st := &states[w]
			note := func(err error) bool {
				if err == nil {
					return true
				}
				if errors.Is(err, context.DeadlineExceeded) ||
					errors.Is(err, context.Canceled) ||
					errors.Is(err, dq.ErrContended) {
					st.aborts++
					return false
				}
				fmt.Printf("worker %d: unexpected error %v\n", w, err)
				stop.Store(true)
				return false
			}
			for !stop.Load() {
				// Every push attempt gets a fresh ID whether or not it lands:
				// a cancelled push whose value later surfaces is then caught
				// as "popped but never pushed".
				id := uint32(w)<<24 | (i & 0x00FFFFFF)
				i++
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(40))*time.Microsecond)
				attempts := 1 + rng.Intn(3)
				switch rng.Intn(8) {
				case 0:
					if note(h.PushLeftCtx(ctx, id)) {
						st.pushedOK = append(st.pushedOK, id)
					}
				case 1:
					if note(h.PushRightCtx(ctx, id)) {
						st.pushedOK = append(st.pushedOK, id)
					}
				case 2:
					if note(h.TryPushLeft(id, attempts)) {
						st.pushedOK = append(st.pushedOK, id)
					}
				case 3:
					if note(h.TryPushRight(id, attempts)) {
						st.pushedOK = append(st.pushedOK, id)
					}
				case 4:
					if v, ok, err := h.PopLeftCtx(ctx); note(err) && ok {
						st.popped = append(st.popped, v)
					}
				case 5:
					if v, ok, err := h.PopRightCtx(ctx); note(err) && ok {
						st.popped = append(st.popped, v)
					}
				case 6:
					if v, ok, err := h.TryPopLeft(attempts); note(err) && ok {
						st.popped = append(st.popped, v)
					}
				case 7:
					if v, ok, err := h.TryPopRight(attempts); note(err) && ok {
						st.popped = append(st.popped, v)
					}
				}
				cancel()
			}
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	// Drain the residue, then check exactness: popped ∪ residue must equal
	// the nil-error pushes, with no duplicates and no inventions.
	h := deq.Register()
	residue := []uint32{}
	for {
		v, ok := h.PopLeft()
		if !ok {
			break
		}
		residue = append(residue, v)
	}
	pushedOK := make(map[uint32]bool)
	totalPushed, totalAborts := 0, uint64(0)
	for w := range states {
		totalAborts += states[w].aborts
		for _, v := range states[w].pushedOK {
			if pushedOK[v] {
				fmt.Printf("value %#x pushed-ok twice\n", v)
				return false
			}
			pushedOK[v] = true
			totalPushed++
		}
	}
	totalPopped := 0
	recover := func(v uint32) bool {
		if !pushedOK[v] {
			fmt.Printf("value %#x popped but its push was aborted (or never ran)\n", v)
			return false
		}
		delete(pushedOK, v)
		totalPopped++
		return true
	}
	for w := range states {
		for _, v := range states[w].popped {
			if !recover(v) {
				return false
			}
		}
	}
	for _, v := range residue {
		if !recover(v) {
			return false
		}
	}
	fmt.Printf("pushed-ok=%d popped=%d residue=%d aborts=%d\n",
		totalPushed, totalPopped-len(residue), len(residue), totalAborts)
	if *metricsFlag {
		printMetrics(deq.Metrics())
	}
	if len(pushedOK) != 0 {
		fmt.Printf("%d successfully pushed values lost\n", len(pushedOK))
		return false
	}
	return true
}

// linearizability records many small histories and checks each.
func linearizability(factory bench.Factory, workers, histories, opsPer int, seed uint64) bool {
	if workers*opsPer*2 > lincheck.MaxOps {
		fmt.Printf("capping: %d workers x %d ops exceeds checkable history size\n", workers, opsPer)
		workers = 3
	}
	for trial := 0; trial < histories; trial++ {
		inst := factory(workers + 1)
		rec := lincheck.NewRecorder()
		logs := make([]*lincheck.WorkerLog, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			logs[w] = rec.Worker()
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := inst.Session()
				l := logs[w]
				rng := xrand.NewXoshiro256(seed + uint64(trial)*131 + uint64(w))
				for i := 0; i < opsPer; i++ {
					v := uint32(trial&0xFFFF)<<12 | uint32(w)<<8 | uint32(i)
					switch rng.Intn(4) {
					case 0:
						l.Push(lincheck.PushLeft, v, func() { s.PushLeft(v) })
					case 1:
						l.Push(lincheck.PushRight, v, func() { s.PushRight(v) })
					case 2:
						l.Pop(lincheck.PopLeft, s.PopLeft)
					case 3:
						l.Pop(lincheck.PopRight, s.PopRight)
					}
				}
			}(w)
		}
		wg.Wait()
		h := lincheck.Merge(logs...)
		if !lincheck.Check(h) {
			fmt.Printf("history %d NOT linearizable:\n", trial)
			for _, op := range h {
				fmt.Printf("  %v\n", op)
			}
			return false
		}
		if trial%500 == 499 {
			fmt.Printf("checked %d histories\n", trial+1)
		}
	}
	return true
}
