// Command benchrelaxed measures the strict-vs-relaxed trade and writes
// BENCH_relaxed.json: the alternating push/pop workload at each shard
// count in the sweep, once through a plain Pool (key-0 routing — exactly
// what a strict Relaxed handle delegates to) and once through the
// d-choice Relaxed front-end, reporting throughput plus the observed
// rank error (max and mean) the relaxation actually produced. See
// scripts/bench_relaxed.sh and scripts/relaxed_overhead.sh.
//
// Single-arm modes (-mode pool, -mode strict, -mode relaxed) emit one
// {"ops_per_sec": {...}, "host": {...}} run for A/B scripts; -mode curve
// (the default) writes the full report. -gate-rank-bound turns the
// configured bound into an exit status: any relaxed measurement whose
// observed max rank error exceeds it fails the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	dq "repro"
	"repro/internal/bench"
	"repro/internal/hostmeta"
)

// armResult is one (arm, shards, threads) measurement.
type armResult struct {
	opsPerSec float64
	rankMax   uint64
	rankMean  float64
}

// run is one arm's sweep, keyed by goroutine count.
type run struct {
	Label     string             `json:"label"`
	Arm       string             `json:"arm"`
	Shards    int                `json:"shards"`
	D         int                `json:"d,omitempty"`
	RankBound int                `json:"rank_bound,omitempty"`
	OpsPerSec map[string]float64 `json:"ops_per_sec"`
	// RankErrMax/RankErrMean report the observed relaxation per thread
	// count (relaxed arm only; the strict arms are in-order by shard).
	RankErrMax  map[string]uint64  `json:"rank_err_max,omitempty"`
	RankErrMean map[string]float64 `json:"rank_err_mean,omitempty"`
	TrialsUsed  int                `json:"trials"`
}

type report struct {
	Generated string        `json:"generated"`
	Host      hostmeta.Host `json:"host"`
	Workload  string        `json:"workload"`
	DurationS float64       `json:"duration_s"`
	Threads   []int         `json:"threads"`
	Shards    []int         `json:"shards"`
	D         int           `json:"d"`
	RankBound int           `json:"rank_bound"`
	Strict    []run         `json:"strict"`
	Relaxed   []run         `json:"relaxed"`
	// Speedup is relaxed/strict throughput keyed "shards/threads".
	Speedup map[string]float64 `json:"speedup_relaxed_over_strict"`
}

func main() {
	var (
		duration    = flag.Duration("duration", 500*time.Millisecond, "measured run length per trial")
		trials      = flag.Int("trials", 3, "trials per configuration (throughput is the mean)")
		threadsFlag = flag.String("threads", "1,4,16", "comma-separated goroutine counts")
		shardsFlag  = flag.String("shards", "1,4,16", "comma-separated shard counts (curve mode)")
		dFlag       = flag.Int("d", 2, "d-choice sample width for the relaxed arm (clamped to the shard count)")
		rankBound   = flag.Int("rank-bound", 0, "rank-error bound for the relaxed arm (0 = unbounded)")
		prefill     = flag.Int("prefill", 1024, "elements inserted before measuring")
		mode        = flag.String("mode", "curve", "curve (full report), or one arm: pool, strict, relaxed")
		out         = flag.String("out", "BENCH_relaxed.json", "output path")
		gate        = flag.Bool("gate-rank-bound", false, "exit 1 if any relaxed measurement's observed max rank error exceeds -rank-bound")
	)
	flag.Parse()

	threads, err := bench.ParseInts(*threadsFlag, true)
	if err != nil || len(threads) == 0 {
		fatalf("bad -threads: %v", err)
	}
	shardCounts, err := bench.ParseInts(*shardsFlag, true)
	if err != nil || len(shardCounts) == 0 {
		fatalf("bad -shards: %v", err)
	}
	if *gate && *rankBound <= 0 {
		fatalf("-gate-rank-bound needs a positive -rank-bound")
	}

	cfg := benchConfig{
		duration: *duration,
		trials:   *trials,
		prefill:  *prefill,
		d:        *dFlag,
		bound:    *rankBound,
	}

	gateOK := true
	sweep := func(arm string, shards int) run {
		r := run{
			Label:      fmt.Sprintf("%s shards=%d", arm, shards),
			Arm:        arm,
			Shards:     shards,
			OpsPerSec:  map[string]float64{},
			TrialsUsed: *trials,
		}
		if arm == "relaxed" {
			r.D = min(cfg.d, shards)
			r.RankBound = cfg.bound
			r.RankErrMax = map[string]uint64{}
			r.RankErrMean = map[string]float64{}
		}
		for _, t := range threads {
			res := measure(arm, shards, t, cfg)
			key := strconv.Itoa(t)
			r.OpsPerSec[key] = res.opsPerSec
			line := fmt.Sprintf("  %-22s t=%-3d %14.0f ops/s", r.Label, t, res.opsPerSec)
			if arm == "relaxed" {
				r.RankErrMax[key] = res.rankMax
				r.RankErrMean[key] = res.rankMean
				line += fmt.Sprintf("  rank err max=%d mean=%.2f", res.rankMax, res.rankMean)
				if *gate && res.rankMax > uint64(cfg.bound) {
					gateOK = false
					line += fmt.Sprintf("  GATE: exceeds bound %d", cfg.bound)
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		return r
	}

	switch *mode {
	case "pool", "strict", "relaxed":
		// Single-arm run for A/B scripts: same shape helping_overhead.sh
		// reads (ops_per_sec keyed by thread count, host for the
		// equal-GOMAXPROCS assertion).
		r := sweep(*mode, shardCounts[0])
		if err := bench.WriteJSON(*out, struct {
			run
			Host hostmeta.Host `json:"host"`
		}{r, hostmeta.Collect()}); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s arm to %s\n", *mode, *out)

	case "curve":
		var strict, relaxed []run
		speedup := map[string]float64{}
		for _, s := range shardCounts {
			fmt.Fprintf(os.Stderr, "== shards=%d ==\n", s)
			ps := sweep("pool", s)
			rs := sweep("relaxed", s)
			strict = append(strict, ps)
			relaxed = append(relaxed, rs)
			for _, t := range threads {
				key := strconv.Itoa(t)
				if base := ps.OpsPerSec[key]; base > 0 {
					speedup[fmt.Sprintf("%d/%s", s, key)] = rs.OpsPerSec[key] / base
				}
			}
		}
		rep := report{
			Generated: time.Now().UTC().Format(time.RFC3339),
			Host:      hostmeta.Collect(),
			Workload:  fmt.Sprintf("alternating push-left/pop-right on uint32, prefill %d", *prefill),
			DurationS: duration.Seconds(),
			Threads:   threads,
			Shards:    shardCounts,
			D:         *dFlag,
			RankBound: *rankBound,
			Strict:    strict,
			Relaxed:   relaxed,
			Speedup:   speedup,
		}
		if err := bench.WriteJSON(*out, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	default:
		fatalf("unknown -mode %q (want curve, pool, strict, or relaxed)", *mode)
	}

	if *gate {
		if !gateOK {
			fatalf("rank-bound gate: FAIL — observed rank error exceeded the configured bound %d", *rankBound)
		}
		fmt.Fprintln(os.Stderr, "rank-bound gate: PASS")
	}
}

type benchConfig struct {
	duration time.Duration
	trials   int
	prefill  int
	d        int
	bound    int
}

// pusherPopper is the per-worker op pair every arm reduces to, so the
// measured loop is identical across arms.
type pusherPopper struct {
	push func(uint32) error
	pop  func() (uint32, bool)
	done func()
}

// measure runs cfg.trials trials of the alternating workload and returns
// the mean throughput; for the relaxed arm it also merges the observed
// rank-error snapshot across trials (max of maxes, pop-weighted mean).
func measure(arm string, shards, threads int, cfg benchConfig) armResult {
	var (
		sum      float64
		rankMax  uint64
		rankSum  uint64
		rankPops uint64
	)
	for trial := 0; trial < cfg.trials; trial++ {
		ops, m := runTrial(arm, shards, threads, cfg)
		sum += ops
		if m.RankMax > rankMax {
			rankMax = m.RankMax
		}
		rankSum += m.RankSum
		rankPops += m.Pops
	}
	res := armResult{opsPerSec: sum / float64(cfg.trials), rankMax: rankMax}
	if rankPops > 0 {
		res.rankMean = float64(rankSum) / float64(rankPops)
	}
	return res
}

// runTrial builds a fresh structure, prefills it, and drives the
// alternating push-left/pop-right loop on `threads` goroutines for the
// configured duration.
func runTrial(arm string, shards, threads int, cfg benchConfig) (opsPerSec float64, m dq.RelaxMetrics) {
	shardOpts := dq.WithShardOptions(dq.WithMaxThreads(threads + 1))
	var (
		rx      *dq.Relaxed[uint32]
		pool    *dq.Pool[uint32]
		workers = make([]pusherPopper, threads)
		seed    pusherPopper
	)
	mkRelaxed := func(d int) {
		opts := []dq.RelaxedOption{
			dq.WithRelaxation(min(d, shards)),
			dq.WithRelaxedPool(shardOpts),
		}
		if cfg.bound > 0 {
			opts = append(opts, dq.WithRankBound(cfg.bound))
		}
		rx = dq.NewRelaxed[uint32](shards, opts...)
		mk := func() pusherPopper {
			h := rx.Register()
			return pusherPopper{push: h.PushLeft, pop: h.PopRight, done: h.Flush}
		}
		for i := range workers {
			workers[i] = mk()
		}
		seed = mk()
	}
	switch arm {
	case "pool":
		pool = dq.NewPool[uint32](shards, shardOpts)
		mk := func() pusherPopper {
			h := pool.Register()
			return pusherPopper{
				push: func(v uint32) error { return h.PushLeft(0, v) },
				pop:  func() (uint32, bool) { return h.PopRight(0) },
				done: h.Flush,
			}
		}
		for i := range workers {
			workers[i] = mk()
		}
		seed = mk()
	case "strict":
		mkRelaxed(0)
	case "relaxed":
		mkRelaxed(cfg.d)
	default:
		fatalf("unknown arm %q", arm)
	}

	for i := 0; i < cfg.prefill; i++ {
		if err := seed.push(uint32(i)); err != nil {
			fatalf("prefill: %v", err)
		}
	}
	seed.done()

	var (
		stop  atomic.Bool
		total atomic.Uint64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(pp pusherPopper, tag uint32) {
			defer wg.Done()
			var ops uint64
			v := tag << 16
			for !stop.Load() {
				if err := pp.push(v); err != nil {
					fatalf("push: %v", err)
				}
				pp.pop()
				ops += 2
				v++
			}
			pp.done()
			total.Add(ops)
		}(workers[w], uint32(w))
	}
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	if rx != nil {
		m = rx.RelaxMetrics()
	}
	return float64(total.Load()) / elapsed, m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchrelaxed: "+format+"\n", args...)
	os.Exit(1)
}
