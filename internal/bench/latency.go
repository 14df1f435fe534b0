package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/xrand"
)

// LatencyResult aggregates per-operation latency across all workers of a
// run. The paper argues OFDeque keeps latency low while the time-stamped
// deque deliberately elevates it (its intervals widen under delay); this
// mode quantifies that comparison.
type LatencyResult struct {
	Config Config
	Hist   *obs.LatSnapshot // nanoseconds per operation (sampled)
}

// latencySampleShift samples every 2^shift-th operation so the clock reads
// do not dominate the measured cost.
const latencySampleShift = 4

// RunLatency runs one trial of cfg measuring sampled per-operation latency
// instead of aggregate throughput.
func RunLatency(cfg Config) (LatencyResult, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	factory := cfg.Factory
	if factory == nil {
		var err error
		factory, err = Lookup(cfg.Structure)
		if err != nil {
			return LatencyResult{}, err
		}
	}
	inst := factory(cfg.Threads + 1)
	if cfg.Prefill > 0 {
		s := inst.Session()
		for i := 0; i < cfg.Prefill; i++ {
			s.PushRight(uint32(i))
		}
	}

	var (
		stop  atomic.Bool
		wg    sync.WaitGroup
		mu    sync.Mutex
		total = new(obs.LatSnapshot)
	)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if cfg.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			s := inst.Session()
			rng := xrand.NewXoshiro256(cfg.Seed + uint64(w)*7919 + 3)
			local := new(obs.LatSnapshot)
			ops := uint64(0)
			for !stop.Load() {
				sample := ops&(1<<latencySampleShift-1) == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
				v := uint32(ops) & 0x00FFFFFF
				switch cfg.Pattern {
				case PatternStack:
					if rng.Bool() {
						s.PushLeft(v)
					} else {
						s.PopLeft()
					}
				case PatternQueue:
					if rng.Bool() {
						s.PushLeft(v)
					} else {
						s.PopRight()
					}
				default:
					switch rng.Intn(4) {
					case 0:
						s.PushLeft(v)
					case 1:
						s.PushRight(v)
					case 2:
						s.PopLeft()
					case 3:
						s.PopRight()
					}
				}
				if sample {
					local.Record(uint64(time.Since(t0)))
				}
				ops++
			}
			mu.Lock()
			total.Merge(local)
			mu.Unlock()
		}(w)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	return LatencyResult{Config: cfg, Hist: total}, nil
}
