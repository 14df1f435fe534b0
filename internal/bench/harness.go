package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// Pattern is an access pattern from Section IV: under Stack threads choose
// only between push_left and pop_left; under Queue between push_left and
// pop_right; under Deque among all four methods.
type Pattern string

// The paper's three access patterns.
const (
	PatternDeque Pattern = "deque"
	PatternStack Pattern = "stack"
	PatternQueue Pattern = "queue"
)

// Patterns lists all access patterns.
var Patterns = []Pattern{PatternDeque, PatternStack, PatternQueue}

// Config is one benchmark point.
type Config struct {
	Structure string        // registry name (or "" when Factory is set)
	Factory   Factory       // overrides Structure when non-nil (ablations)
	Pattern   Pattern       // access pattern
	Threads   int           // worker goroutines
	Duration  time.Duration // measured run length per trial
	Trials    int           // repetitions (the paper uses 5)
	Prefill   int           // elements inserted before measuring
	Pin       bool          // LockOSThread each worker
	Seed      uint64        // base RNG seed
}

// Result is the outcome of all trials of one Config.
type Result struct {
	Config  Config
	Trials  []float64 // ops/sec per trial
	Summary Summary
}

// Throughput returns the mean ops/sec, the figure the paper plots.
func (r Result) Throughput() float64 { return r.Summary.Mean }

// String formats a result row.
func (r Result) String() string {
	name := r.Config.Structure
	if name == "" {
		name = "custom"
	}
	return fmt.Sprintf("%-14s %-6s t=%-3d %14.0f ops/s  (±%.1f%%)",
		name, r.Config.Pattern, r.Config.Threads,
		r.Summary.Mean, 100*r.Summary.RelStddev())
}

// Run executes cfg and returns its Result.
func Run(cfg Config) (Result, error) {
	if cfg.Threads <= 0 {
		return Result{}, fmt.Errorf("bench: Threads must be positive")
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 5 // the paper's trial count
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	factory := cfg.Factory
	if factory == nil {
		var err error
		factory, err = Lookup(cfg.Structure)
		if err != nil {
			return Result{}, err
		}
	}
	trials := make([]float64, 0, cfg.Trials)
	for trial := 0; trial < cfg.Trials; trial++ {
		ops := runTrial(factory, cfg, uint64(trial))
		trials = append(trials, float64(ops)/cfg.Duration.Seconds())
	}
	return Result{Config: cfg, Trials: trials, Summary: Summarize(trials)}, nil
}

// runTrial performs one timed run and returns the total operation count.
func runTrial(factory Factory, cfg Config, trial uint64) uint64 {
	inst := factory(cfg.Threads + 1)
	if cfg.Prefill > 0 {
		s := inst.Session()
		for i := 0; i < cfg.Prefill; i++ {
			if i%2 == 0 {
				s.PushLeft(uint32(i))
			} else {
				s.PushRight(uint32(i))
			}
		}
	}

	var (
		start sync.WaitGroup // workers ready
		gate  = make(chan struct{})
		stop  atomic.Bool
		total atomic.Uint64
		wg    sync.WaitGroup
	)
	start.Add(cfg.Threads)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if cfg.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			s := inst.Session()
			rng := xrand.NewXoshiro256(cfg.Seed ^ (trial*1315423911 + uint64(w) + 1))
			start.Done()
			<-gate
			ops := uint64(0)
			// Check the stop flag every batch to keep it off the hot path.
			for !stop.Load() {
				for i := 0; i < 64; i++ {
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
					default: // deque
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
					ops++
				}
			}
			total.Add(ops)
		}(w)
	}
	start.Wait()
	close(gate)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	return total.Load()
}

// Sweep runs cfg across the given thread counts, reusing all other fields.
func Sweep(cfg Config, threads []int) ([]Result, error) {
	out := make([]Result, 0, len(threads))
	for _, t := range threads {
		c := cfg
		c.Threads = t
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
