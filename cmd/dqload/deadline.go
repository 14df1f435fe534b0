package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostmeta"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Deadline workload mode (-deadline): drive a schedd scheduler instead
// of a plain dequed pool. Each worker submits jobs with sampled
// deadlines — the job's value IS its deadline, encoded as microseconds
// since run start, so whoever pops it can compute lateness without any
// shared table — mapped to priority bands by slack (tight deadline =
// urgent = low band). Workers alternate submits with PopMin (serving the
// most urgent job, recording its lateness) and every -shed'th pop is a
// PopMax (the overload drop channel). StatusFull on submit is counted as
// a shed job: admission control refused it.
//
// Lateness is measured at the moment the PopMin response arrives:
// now - deadline, clamped at zero (early completions are not negative
// lateness), into its own histogram reported as late_p50/p99/p99.9.

// deadlineResult carries one deadline worker's tallies back to main.
type deadlineResult struct {
	hist     *obs.LatSnapshot // request round-trip latency
	late     *obs.LatSnapshot // job lateness at PopMin completion
	ops      uint64           // requests completed
	admitted uint64           // submits the server accepted
	shedFull uint64           // submits refused with StatusFull
	popMin   uint64           // jobs served from the urgent end
	popMax   uint64           // jobs dropped from the shed end
	empty    uint64           // pops that found the queue empty
	err      error
}

// request kinds per pipeline slot, so responses decode correctly.
const (
	kindSubmit = iota
	kindPopMin
	kindPopMax
)

// runDeadlineWorker drives one connection until stop flips, pipelined
// like runWorker. start anchors the deadline encoding; every worker must
// share it.
func runDeadlineWorker(addr string, tag uint64, bands int, horizon time.Duration, pipeline, shed int, start time.Time, stop *atomic.Bool) deadlineResult {
	res := deadlineResult{hist: new(obs.LatSnapshot), late: new(obs.LatSnapshot)}
	c, err := wire.Dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		c.Flush()
		c.Close()
	}()

	rng := rand.New(rand.NewSource(int64(tag)*0x9e3779b9 + 1))
	sent := make([]time.Time, pipeline)
	kinds := make([]int, pipeline)
	val := make([]uint32, 1)
	step := 0 // even = submit, odd = pop
	pops := 0
	for !stop.Load() {
		for i := 0; i < pipeline; i++ {
			req := wire.Request{}
			if step%2 == 0 {
				// Sample a deadline: uniform slack in (0, horizon], band by
				// relative slack — the tighter the deadline, the more urgent.
				slack := time.Duration(1 + rng.Int63n(int64(horizon)))
				band := int(int64(slack) * int64(bands) / (int64(horizon) + 1))
				val[0] = uint32(time.Since(start).Microseconds() + slack.Microseconds())
				req.Op, req.Key, req.Count, req.Values = wire.OpPushPrio, uint64(band), 1, val
				kinds[i] = kindSubmit
			} else {
				pops++
				if shed > 0 && pops%shed == 0 {
					req.Op = wire.OpPopMax
					kinds[i] = kindPopMax
				} else {
					req.Op = wire.OpPopMin
					kinds[i] = kindPopMin
				}
			}
			step++
			sent[i] = time.Now()
			if _, err := c.Send(&req); err != nil {
				res.err = err
				return res
			}
		}
		if err := c.Flush(); err != nil {
			res.err = err
			return res
		}
		for i := 0; i < pipeline; i++ {
			resp, err := c.Recv()
			if err != nil {
				res.err = err
				return res
			}
			res.hist.Record(uint64(time.Since(sent[i])))
			res.ops++
			switch resp.Status {
			case wire.StatusOK:
				switch kinds[i] {
				case kindSubmit:
					res.admitted++
				case kindPopMin:
					res.popMin++
					// The job's value is its deadline in µs since start;
					// lateness is how far past it the urgent end served it.
					late := time.Since(start.Add(time.Duration(resp.Values[0]) * time.Microsecond))
					if late < 0 {
						late = 0
					}
					res.late.Record(uint64(late))
				case kindPopMax:
					res.popMax++
				}
			case wire.StatusFull:
				res.shedFull++ // admission refused: the job was shed at the door
			case wire.StatusEmpty:
				res.empty++
			case wire.StatusContended, wire.StatusCanceled:
				// Backpressure or drain: nothing moved, keep going.
			default:
				res.err = fmt.Errorf("dqload: unexpected status %d", resp.Status)
				return res
			}
		}
	}
	return res
}

// runDeadline is the -deadline entry point: closed-loop deadline workers
// against a schedd server, lateness quantiles, the OpDepq inversion
// snapshot, and (with -check-conserve) a full drain proving count
// conservation: every admitted job was served, dropped, or still queued.
func runDeadline(addr string, conns int, duration time.Duration, bands int, horizon time.Duration, pipeline, shed int, checkConserve, opstats, jsonOut bool) {
	var stop atomic.Bool
	results := make([]deadlineResult, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runDeadlineWorker(addr, uint64(w), bands, horizon, pipeline, shed, start, &stop)
		}(w)
	}
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	rtt := new(obs.LatSnapshot)
	late := new(obs.LatSnapshot)
	var total deadlineResult
	for i := range results {
		r := &results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "dqload: worker %d: %v\n", i, r.err)
			os.Exit(1)
		}
		rtt.Merge(r.hist)
		late.Merge(r.late)
		total.ops += r.ops
		total.admitted += r.admitted
		total.shedFull += r.shedFull
		total.popMin += r.popMin
		total.popMax += r.popMax
		total.empty += r.empty
	}

	// Post-run accounting on a fresh connection: the observed-inversion
	// snapshot, and (optionally) a drain that closes the conservation
	// ledger — admitted = served + dropped + drained, exactly.
	c, err := wire.Dial(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dqload: post-run dial:", err)
		os.Exit(1)
	}
	defer c.Close()
	var drained uint64
	if checkConserve {
		for {
			_, _, ok, err := c.PopMin()
			if err != nil {
				fmt.Fprintln(os.Stderr, "dqload: drain:", err)
				os.Exit(1)
			}
			if !ok {
				break
			}
			drained++
		}
		if got := total.popMin + total.popMax + drained; got != total.admitted {
			fmt.Fprintf(os.Stderr, "dqload: CONSERVATION VIOLATION: admitted %d != served %d + dropped %d + drained %d\n",
				total.admitted, total.popMin, total.popMax, drained)
			os.Exit(1)
		}
	}
	ds, err := c.Depq()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dqload: depq snapshot:", err)
		os.Exit(1)
	}
	var srvStats []wire.OpStat
	if opstats {
		srvStats, err = c.Stats()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dqload: op-stats snapshot:", err)
			os.Exit(1)
		}
	}

	secs := elapsed.Seconds()
	if jsonOut {
		out := map[string]any{
			"addr":         addr,
			"mode":         "deadline",
			"conns":        conns,
			"pipeline":     pipeline,
			"bands":        bands,
			"horizon_ns":   horizon.Nanoseconds(),
			"elapsed_sec":  secs,
			"ops":          total.ops,
			"ops_per_sec":  float64(total.ops) / secs,
			"admitted":     total.admitted,
			"shed_full":    total.shedFull,
			"pop_min":      total.popMin,
			"pop_max":      total.popMax,
			"empty":        total.empty,
			"p50_ns":       rtt.Quantile(0.50),
			"p90_ns":       rtt.Quantile(0.90),
			"p99_ns":       rtt.Quantile(0.99),
			"p999_ns":      rtt.Quantile(0.999),
			"late_p50_ns":  late.Quantile(0.50),
			"late_p99_ns":  late.Quantile(0.99),
			"late_p999_ns": late.Quantile(0.999),
			"late_mean_ns": late.Mean(),
			"late_max_ns":  late.Max,
			"inv_max":      ds.InvMax,
			"band_bound":   ds.BandBound,
			"inv_mean":     float64(ds.MeanMilli) / 1000,
			"host":         hostmeta.Collect(),
		}
		if checkConserve {
			out["drained"] = drained
			out["conserved"] = true
		}
		if opstats {
			out["op_stats"] = srvStats
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dqload:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("dqload: deadline mode, %d conns x %.1fs, bands=%d horizon=%s pipeline=%d\n",
		conns, secs, bands, horizon, pipeline)
	fmt.Printf("  %d requests (%.0f/s): admitted=%d shed(full)=%d served(min)=%d dropped(max)=%d empty=%d\n",
		total.ops, float64(total.ops)/secs, total.admitted, total.shedFull,
		total.popMin, total.popMax, total.empty)
	fmt.Printf("  rtt     %s\n", rtt.String())
	fmt.Printf("  lateness p50=%s p99=%s p99.9=%s mean=%s max=%s\n",
		time.Duration(late.Quantile(0.50)), time.Duration(late.Quantile(0.99)),
		time.Duration(late.Quantile(0.999)), time.Duration(int64(late.Mean())),
		time.Duration(late.Max))
	fmt.Printf("  inversion max=%d mean=%.3f (bound %d, %d bands)\n",
		ds.InvMax, float64(ds.MeanMilli)/1000, ds.BandBound, ds.Bands)
	if checkConserve {
		fmt.Printf("  conserved: admitted %d = served %d + dropped %d + drained %d\n",
			total.admitted, total.popMin, total.popMax, drained)
	}
	if opstats {
		for _, st := range srvStats {
			fmt.Printf("  server %-11s n=%-8d p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
				st.Class, st.Count,
				time.Duration(st.P50Ns), time.Duration(st.P90Ns),
				time.Duration(st.P99Ns), time.Duration(st.P999Ns), time.Duration(st.MaxNs))
		}
	}
}
