// Command dqload is a closed-loop load generator for dequed: N
// connections, each alternating pushes and pops (optionally batched,
// optionally pipelined), measuring throughput and request latency
// quantiles from per-worker histograms.
//
// Closed loop means each connection keeps a fixed number of requests in
// flight (-pipeline) and issues the next only after a response arrives,
// so reported latency is real round-trip service time, not queue time in
// the generator.
//
// Example:
//
//	dqload -addr localhost:7411 -conns 8 -duration 5s -batch 16 -pipeline 4
//	dqload -addr localhost:7411 -json        # machine-readable summary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	dq "repro"
	"repro/internal/hostmeta"
	"repro/internal/obs"
	"repro/internal/wire"
)

// workerResult carries one connection's tallies back to main.
type workerResult struct {
	hist   *obs.LatSnapshot
	ops    uint64 // requests completed
	values uint64 // values moved (pushed + popped)
	full   uint64 // StatusFull responses (backpressure)
	empty  uint64 // StatusEmpty responses
	err    error
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:7411", "dequed server address")
		conns    = flag.Int("conns", 4, "concurrent connections (closed-loop workers)")
		duration = flag.Duration("duration", 3*time.Second, "measurement window")
		batch    = flag.Int("batch", 1, "values per push/pop request (1 = single-value ops)")
		pipeline = flag.Int("pipeline", 1, "requests in flight per connection")
		route    = flag.String("route", "key", "key discipline matching the server's routing: key (per-worker keys), rr or least (key 0)")
		relax    = flag.Bool("relax", false, "query the server's observed-relaxation snapshot (OpRelax) after the run")
		opstats  = flag.Bool("stats", false, "query the server's per-op-class latency snapshot (OpStats) after the run")
		jsonOut  = flag.Bool("json", false, "emit a JSON summary instead of text")

		deadline = flag.Bool("deadline", false, "deadline workload against a schedd scheduler: OpPushPrio submits with sampled deadlines, OpPopMin serves, lateness quantiles reported")
		bands    = flag.Int("bands", 8, "with -deadline: priority bands to spread submissions over (match the server's -bands)")
		horizon  = flag.Duration("horizon", 50*time.Millisecond, "with -deadline: deadlines are sampled uniformly in (now, now+horizon]")
		shed     = flag.Int("shed", 4, "with -deadline: every shed'th pop is an OpPopMax drop (0 = never shed from the client)")
		conserve = flag.Bool("check-conserve", false, "with -deadline: drain the queue after the run and verify admitted = served + dropped + drained")
	)
	flag.Parse()
	if *conns <= 0 || *batch <= 0 || *batch > wire.MaxBatch || *pipeline <= 0 {
		fmt.Fprintln(os.Stderr, "dqload: conns, batch, and pipeline must be positive (batch <= MaxBatch)")
		os.Exit(2)
	}
	if *deadline {
		if *bands <= 0 || *horizon <= 0 || *shed < 0 {
			fmt.Fprintln(os.Stderr, "dqload: -deadline needs bands > 0, horizon > 0, shed >= 0")
			os.Exit(2)
		}
		if *batch != 1 {
			fmt.Fprintln(os.Stderr, "dqload: -deadline submits are single-value; -batch must be 1")
			os.Exit(2)
		}
		runDeadline(*addr, *conns, *duration, *bands, *horizon, *pipeline, *shed, *conserve, *opstats, *jsonOut)
		return
	}
	policy, err := dq.ParseRouting(*route)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dqload:", err)
		os.Exit(2)
	}
	// Under key-affinity routing each worker pins its own shard, so give
	// every worker a distinct key; the other policies ignore the key (as
	// does a -relaxed server), so key 0 keeps the value tags stable.
	perWorkerKeys := policy == dq.RouteKeyAffinity

	var stop atomic.Bool
	results := make([]workerResult, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := uint64(0)
			if perWorkerKeys {
				key = uint64(w)
			}
			results[w] = runWorker(*addr, uint64(w), key, *batch, *pipeline, &stop)
		}(w)
	}
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	merged := new(obs.LatSnapshot)
	var total workerResult
	for i := range results {
		r := &results[i]
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "dqload: worker %d: %v\n", i, r.err)
			os.Exit(1)
		}
		merged.Merge(r.hist)
		total.ops += r.ops
		total.values += r.values
		total.full += r.full
		total.empty += r.empty
	}

	// Observed-relaxation snapshot, queried once on a fresh connection
	// after the workers are done so it covers the whole run.
	var rs wire.RelaxStats
	if *relax {
		c, err := wire.Dial(*addr)
		if err == nil {
			rs, err = c.Relax()
			c.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dqload: relax snapshot:", err)
			os.Exit(1)
		}
	}

	// Server-side latency histograms, same post-run fresh connection.
	var srvStats []wire.OpStat
	if *opstats {
		c, err := wire.Dial(*addr)
		if err == nil {
			srvStats, err = c.Stats()
			c.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dqload: op-stats snapshot:", err)
			os.Exit(1)
		}
	}

	secs := elapsed.Seconds()
	if *jsonOut {
		out := map[string]any{
			"addr":           *addr,
			"conns":          *conns,
			"batch":          *batch,
			"pipeline":       *pipeline,
			"elapsed_sec":    secs,
			"ops":            total.ops,
			"values":         total.values,
			"ops_per_sec":    float64(total.ops) / secs,
			"values_per_sec": float64(total.values) / secs,
			"full":           total.full,
			"empty":          total.empty,
			"p50_ns":         merged.Quantile(0.50),
			"p90_ns":         merged.Quantile(0.90),
			"p99_ns":         merged.Quantile(0.99),
			"p999_ns":        merged.Quantile(0.999),
			"mean_ns":        merged.Mean(),
			"max_ns":         merged.Max,
			"host":           hostmeta.Collect(),
		}
		if *relax {
			out["rank_error_max"] = rs.RankMax
			out["rank_bound"] = rs.RankBound
			out["rank_error_mean"] = float64(rs.MeanMilli) / 1000
			out["relax_d"] = rs.Sample
			out["relax_shards"] = rs.Shards
		}
		if *opstats {
			out["op_stats"] = srvStats
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "dqload:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("dqload: %d conns x %.1fs, batch=%d pipeline=%d\n", *conns, secs, *batch, *pipeline)
	fmt.Printf("  %d requests (%.0f/s), %d values (%.0f/s), full=%d empty=%d\n",
		total.ops, float64(total.ops)/secs, total.values, float64(total.values)/secs,
		total.full, total.empty)
	fmt.Printf("  latency %s\n", merged.String())
	if *relax {
		fmt.Printf("  relaxation d=%d shards=%d: rank error max=%d mean=%.3f (bound %d)\n",
			rs.Sample, rs.Shards, rs.RankMax, float64(rs.MeanMilli)/1000, rs.RankBound)
	}
	if *opstats {
		if len(srvStats) == 0 {
			fmt.Println("  server op latency: no samples (obsoff build or idle server)")
		}
		for _, st := range srvStats {
			fmt.Printf("  server %-11s n=%-8d p50=%s p90=%s p99=%s p99.9=%s max=%s\n",
				st.Class, st.Count,
				time.Duration(st.P50Ns), time.Duration(st.P90Ns),
				time.Duration(st.P99Ns), time.Duration(st.P999Ns), time.Duration(st.MaxNs))
		}
	}
}

// runWorker drives one connection until stop flips: a window of pipeline
// requests is sent, flushed, and received, alternating pushes (left) and
// pops (right) — the pool behaves as a distributed FIFO, so sustained
// load neither drains nor grows it without bound. tag marks this
// worker's values; key is the routing key (0 unless -route key).
func runWorker(addr string, tag, key uint64, batch, pipeline int, stop *atomic.Bool) workerResult {
	res := workerResult{hist: new(obs.LatSnapshot)}
	c, err := wire.Dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		c.Flush()
		c.Close()
	}()

	vs := make([]uint32, batch)
	for i := range vs {
		vs[i] = uint32(tag)<<16 | uint32(i)
	}
	sent := make([]time.Time, pipeline)
	push := true
	for !stop.Load() {
		n := pipeline
		for i := 0; i < n; i++ {
			req := wire.Request{Key: key}
			if push {
				if batch == 1 {
					req.Op, req.Side, req.Count, req.Values = wire.OpPush, wire.Left, 1, vs[:1]
				} else {
					req.Op, req.Side, req.Count, req.Values = wire.OpPushN, wire.Left, uint32(batch), vs
				}
			} else {
				if batch == 1 {
					req.Op, req.Side = wire.OpPop, wire.Right
				} else {
					req.Op, req.Side, req.Count = wire.OpPopN, wire.Right, uint32(batch)
				}
			}
			push = !push
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
		for i := 0; i < n; i++ {
			resp, err := c.Recv()
			if err != nil {
				res.err = err
				return res
			}
			res.hist.Record(uint64(time.Since(sent[i])))
			res.ops++
			switch resp.Status {
			case wire.StatusOK:
				res.values += uint64(resp.Count)
			case wire.StatusFull:
				res.full++
				res.values += uint64(resp.Count) // accepted prefix still landed
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
