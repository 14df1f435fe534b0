package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// TestQueuePatternDiagnostic reproduces the queue-pattern workload with a
// sampler that reports chain length, hint positions, and allocation counts.
// It exists to chase rare livelock/long-walk reports from the stress suite;
// it fails if throughput collapses (a wedge) and logs the state evolution.
func TestQueuePatternDiagnostic(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic run")
	}
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 10})
	const workers = 8
	const opsPer = 20000
	var totalOps atomic.Uint64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			for i := 0; i < opsPer; i++ {
				if (uint32(i)*2654435761+uint32(w))&1 == 0 {
					d.PushLeft(h, uint32(w)<<22|uint32(i))
				} else {
					d.PopRight(h)
				}
				totalOps.Add(1)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	last := uint64(0)
	stall := 0
	for {
		select {
		case <-done:
			return
		case <-time.After(2 * time.Second):
			ops := totalOps.Load()
			lw, lword := d.hint[obs.SideLeft].get()
			rw, _ := d.hint[obs.SideRight].get()
			ch := d.chain()
			span := 0
			for _, n := range ch {
				for i := 1; i < d.sz-1; i++ {
					if !word.IsReserved(word.Val(n.slots[i].Load())) {
						span++
					}
				}
			}
			t.Logf("ops=%d (+%d) alloc=%d chain=%d span=%d lhint=%d(ct %d) rhint=%d",
				ops, ops-last, d.NodesAllocated(), len(ch), span,
				lw.id, word.Ct(lword), rw.id)
			if ops == last {
				stall++
				if stall >= 5 {
					t.Fatalf("wedged: no progress for 10s; chain=%d nodes\n%s",
						len(ch), d.Dump())
				}
			} else {
				stall = 0
			}
			last = ops
		}
	}
}
