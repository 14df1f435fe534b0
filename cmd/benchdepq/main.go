// Command benchdepq measures the cost of priority over the pool and
// writes BENCH_depq.json: the alternating submit/serve workload at each
// band count in the sweep, once through a plain Pool of the same shard
// count (priority-as-key routing, so both arms spread identically — the
// baseline is the DEPQ minus stamps and ordering guarantees) and once
// through the DEPQ front-end with band-stamp reservations and
// two-choice selection, reporting throughput plus the
// priority inversion (max and mean) the relaxation actually produced.
// See scripts/bench_depq.sh.
//
// Single-arm modes (-mode pool, -mode depq) emit one {"ops_per_sec":
// {...}, "host": {...}} run for A/B scripts; -mode curve (the default)
// writes the full report. -gate-inv-bound turns the configured
// -band-bound into an exit status: any DEPQ measurement whose observed
// max inversion exceeds it fails the run.
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

// armResult is one (arm, bands, threads) measurement.
type armResult struct {
	opsPerSec float64
	invMax    uint64
	invMean   float64
}

// run is one arm's sweep, keyed by goroutine count.
type run struct {
	Label     string             `json:"label"`
	Arm       string             `json:"arm"`
	Bands     int                `json:"bands"`
	BandBound int                `json:"band_bound,omitempty"`
	Choice    int                `json:"choice,omitempty"`
	OpsPerSec map[string]float64 `json:"ops_per_sec"`
	// InvMax/InvMean report the observed priority inversion per thread
	// count (depq arm only; the pool arm has no priorities to invert).
	InvMax     map[string]uint64  `json:"inv_max,omitempty"`
	InvMean    map[string]float64 `json:"inv_mean,omitempty"`
	TrialsUsed int                `json:"trials"`
}

type report struct {
	Generated string        `json:"generated"`
	Host      hostmeta.Host `json:"host"`
	Workload  string        `json:"workload"`
	DurationS float64       `json:"duration_s"`
	Threads   []int         `json:"threads"`
	Bands     []int         `json:"bands"`
	BandBound int           `json:"band_bound"`
	Choice    int           `json:"choice"`
	Pool      []run         `json:"pool"`
	Depq      []run         `json:"depq"`
	// Overhead is depq/pool throughput keyed "bands/threads" — the price
	// of priority at that point (1.0 = free, 0.5 = half throughput).
	Overhead map[string]float64 `json:"throughput_depq_over_pool"`
}

func main() {
	var (
		duration    = flag.Duration("duration", 500*time.Millisecond, "measured run length per trial")
		trials      = flag.Int("trials", 3, "trials per configuration (throughput is the mean)")
		threadsFlag = flag.String("threads", "1,4,16", "comma-separated goroutine counts")
		bandsFlag   = flag.String("bands", "2,4,8", "comma-separated band counts (curve mode)")
		bound       = flag.Int("band-bound", 2, "priority-inversion bound for the depq arm (-1 = unbounded)")
		choice      = flag.Int("choice", 2, "d-choice width inside the inversion window")
		prefill     = flag.Int("prefill", 1024, "jobs inserted before measuring (spread round-robin over bands)")
		mode        = flag.String("mode", "curve", "curve (full report), or one arm: pool, depq")
		out         = flag.String("out", "BENCH_depq.json", "output path")
		gate        = flag.Bool("gate-inv-bound", false, "exit 1 if any depq measurement's observed max inversion exceeds -band-bound")
	)
	flag.Parse()

	threads, err := bench.ParseInts(*threadsFlag, true)
	if err != nil || len(threads) == 0 {
		fatalf("bad -threads: %v", err)
	}
	bandCounts, err := bench.ParseInts(*bandsFlag, true)
	if err != nil || len(bandCounts) == 0 {
		fatalf("bad -bands: %v", err)
	}
	if *gate && *bound < 0 {
		fatalf("-gate-inv-bound needs a non-negative -band-bound")
	}

	cfg := benchConfig{
		duration: *duration,
		trials:   *trials,
		prefill:  *prefill,
		bound:    *bound,
		choice:   *choice,
	}

	gateOK := true
	sweep := func(arm string, bands int) run {
		r := run{
			Label:      fmt.Sprintf("%s bands=%d", arm, bands),
			Arm:        arm,
			Bands:      bands,
			OpsPerSec:  map[string]float64{},
			TrialsUsed: *trials,
		}
		if arm == "depq" {
			if cfg.bound >= 0 {
				r.BandBound = cfg.bound
			}
			r.Choice = cfg.choice
			r.InvMax = map[string]uint64{}
			r.InvMean = map[string]float64{}
		}
		for _, t := range threads {
			res := measure(arm, bands, t, cfg)
			key := strconv.Itoa(t)
			r.OpsPerSec[key] = res.opsPerSec
			line := fmt.Sprintf("  %-18s t=%-3d %14.0f ops/s", r.Label, t, res.opsPerSec)
			if arm == "depq" {
				r.InvMax[key] = res.invMax
				r.InvMean[key] = res.invMean
				line += fmt.Sprintf("  inversion max=%d mean=%.2f", res.invMax, res.invMean)
				if *gate && cfg.bound >= 0 && res.invMax > uint64(cfg.bound) {
					gateOK = false
					line += fmt.Sprintf("  GATE: exceeds bound %d", cfg.bound)
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		return r
	}

	switch *mode {
	case "pool", "depq":
		r := sweep(*mode, bandCounts[0])
		if err := bench.WriteJSON(*out, struct {
			run
			Host hostmeta.Host `json:"host"`
		}{r, hostmeta.Collect()}); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s arm to %s\n", *mode, *out)

	case "curve":
		var pool, depq []run
		overhead := map[string]float64{}
		for _, b := range bandCounts {
			fmt.Fprintf(os.Stderr, "== bands=%d ==\n", b)
			pr := sweep("pool", b)
			dr := sweep("depq", b)
			pool = append(pool, pr)
			depq = append(depq, dr)
			for _, t := range threads {
				key := strconv.Itoa(t)
				if base := pr.OpsPerSec[key]; base > 0 {
					overhead[fmt.Sprintf("%d/%s", b, key)] = dr.OpsPerSec[key] / base
				}
			}
		}
		rep := report{
			Generated: time.Now().UTC().Format(time.RFC3339),
			Host:      hostmeta.Collect(),
			Workload:  fmt.Sprintf("alternating submit/serve on uint32 (every 8th serve a PopMax shed), prefill %d", *prefill),
			DurationS: duration.Seconds(),
			Threads:   threads,
			Bands:     bandCounts,
			BandBound: *bound,
			Choice:    *choice,
			Pool:      pool,
			Depq:      depq,
			Overhead:  overhead,
		}
		if err := bench.WriteJSON(*out, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	default:
		fatalf("unknown -mode %q (want curve, pool, or depq)", *mode)
	}

	if *gate {
		if !gateOK {
			fatalf("inversion-bound gate: FAIL — observed inversion exceeded the configured bound %d", *bound)
		}
		fmt.Fprintln(os.Stderr, "inversion-bound gate: PASS")
	}
}

type benchConfig struct {
	duration time.Duration
	trials   int
	prefill  int
	bound    int
	choice   int
}

// submitServe is the per-worker op pair every arm reduces to, so the
// measured loop is identical across arms. serve's bool argument selects
// the shed end (true = PopMax) where the arm has one.
type submitServe struct {
	submit func(v uint32, prio int) error
	serve  func(shed bool) bool
	done   func()
}

// measure runs cfg.trials trials of the alternating workload and returns
// the mean throughput; for the depq arm it also merges the observed
// inversion snapshot across trials (max of maxes, pop-weighted mean).
func measure(arm string, bands, threads int, cfg benchConfig) armResult {
	var (
		sum     float64
		invMax  uint64
		invSum  uint64
		invPops uint64
	)
	for trial := 0; trial < cfg.trials; trial++ {
		ops, m := runTrial(arm, bands, threads, cfg)
		sum += ops
		if m.InvMax > invMax {
			invMax = m.InvMax
		}
		invSum += m.InvSum
		invPops += m.Pops()
	}
	res := armResult{opsPerSec: sum / float64(cfg.trials), invMax: invMax}
	if invPops > 0 {
		res.invMean = float64(invSum) / float64(invPops)
	}
	return res
}

// runTrial builds a fresh structure, prefills it, and drives the
// alternating submit/serve loop on `threads` goroutines for the
// configured duration.
func runTrial(arm string, bands, threads int, cfg benchConfig) (opsPerSec float64, m dq.DepqMetrics) {
	shardOpts := dq.WithShardOptions(dq.WithMaxThreads(threads + 1))
	var (
		q       *dq.DEPQ[uint32]
		pool    *dq.Pool[uint32]
		workers = make([]submitServe, threads)
		seed    submitServe
	)
	switch arm {
	case "pool":
		// Key-affinity with key = priority: identical spread to the DEPQ's
		// band mapping, minus the stamps and ordered selection.
		pool = dq.NewPool[uint32](bands, dq.WithRouting(dq.RouteKeyAffinity), shardOpts)
		mk := func() submitServe {
			h := pool.Register()
			var pops int
			return submitServe{
				submit: func(v uint32, prio int) error { return h.PushLeft(uint64(prio), v) },
				serve: func(shed bool) bool {
					// Rotate the pop key so the baseline drains every shard the
					// submits feed — spreading without any priority semantics.
					pops++
					k := uint64(pops % bands)
					if shed {
						_, ok := h.PopLeft(k)
						return ok
					}
					_, ok := h.PopRight(k)
					return ok
				},
				done: h.Flush,
			}
		}
		for i := range workers {
			workers[i] = mk()
		}
		seed = mk()
	case "depq":
		opts := []dq.DEPQOption{
			dq.WithBands(bands),
			dq.WithBandChoice(cfg.choice),
			dq.WithDEPQPool(shardOpts),
		}
		if cfg.bound >= 0 {
			opts = append(opts, dq.WithBandBound(min(cfg.bound, bands-1)))
		}
		q = dq.NewDEPQ[uint32](opts...)
		mk := func() submitServe {
			h := q.Register()
			return submitServe{
				submit: h.Push,
				serve: func(shed bool) bool {
					if shed {
						_, _, ok := h.PopMax()
						return ok
					}
					_, _, ok := h.PopMin()
					return ok
				},
				done: h.Flush,
			}
		}
		for i := range workers {
			workers[i] = mk()
		}
		seed = mk()
	default:
		fatalf("unknown arm %q", arm)
	}

	for i := 0; i < cfg.prefill; i++ {
		if err := seed.submit(uint32(i), i%bands); err != nil {
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
		go func(ss submitServe, tag uint32) {
			defer wg.Done()
			var ops uint64
			v := tag << 16
			for i := 0; !stop.Load(); i++ {
				if err := ss.submit(v, i%bands); err != nil {
					fatalf("submit: %v", err)
				}
				ss.serve(i%8 == 7)
				ops += 2
				v++
			}
			ss.done()
			total.Add(ops)
		}(workers[w], uint32(w))
	}
	time.Sleep(cfg.duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	if q != nil {
		m = q.DepqMetrics()
	}
	return float64(total.Load()) / elapsed, m
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdepq: "+format+"\n", args...)
	os.Exit(1)
}
