// Command dequed serves a sharded deque pool over TCP, speaking the
// internal/wire protocol — the paper's structure as a network service.
// Each connection gets its own goroutine and a pooled per-connection
// handle; requests on a connection are answered strictly in order, so
// clients may pipeline freely.
//
// Lifecycle (internal/server.Process): SIGINT/SIGTERM closes the
// listener, connected clients are served until they hang up or the drain
// timeout cancels their operations, and the /metrics text goes to stderr.
//
// Example:
//
//	dequed -addr :7411 -shards 4 -route least -metrics localhost:7412 &
//	dqload -addr localhost:7411 -conns 8 -duration 5s
//	curl -s localhost:7412/metrics | grep ops_total
//	kill -TERM %1   # drains, dumps metrics, exits 0
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"

	dq "repro"
	"repro/internal/server"
)

func main() {
	p := server.Flags("dequed", "localhost:7411")
	var (
		shards   = flag.Int("shards", 4, "deque shards in the pool")
		route    = flag.String("route", "rr", "routing policy: rr, key, or least")
		steal    = flag.Bool("steal", true, "steal-on-empty rebalancing across shards")
		capacity = flag.Int("capacity", 0, "per-shard value capacity (0 = default)")
		maxconns = flag.Int("maxconns", 64, "concurrent connection cap (pool handles are pooled up to this)")
		memlimit = flag.Int64("memlimit", 0, "per-shard node-memory cap in bytes (0 = unbounded); exceeding pushes get STATUS_FULL")
		relaxed  = flag.Bool("relaxed", false, "serve through the semantically-relaxed d-choice front-end (keys ignored; ordering relaxed across shards)")
		dFlag    = flag.Int("d", 2, "relaxed sample width: shards sampled per op (0 = strict passthrough; needs -relaxed)")
		rank     = flag.Int("rank-bound", 0, "worst-case rank-error bound for -relaxed (0 = unbounded; else >= 4*(shards-1))")
	)
	flag.Parse()

	policy, err := dq.ParseRouting(*route)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dequed:", err)
		os.Exit(2)
	}
	var shardOpts []dq.Option
	if *capacity > 0 {
		shardOpts = append(shardOpts, dq.WithCapacity(*capacity))
	}
	if *memlimit > 0 {
		shardOpts = append(shardOpts, dq.WithMemoryLimit(*memlimit))
	}
	srv, err := NewServer(Config{
		Shards:    *shards,
		Route:     policy,
		Steal:     *steal,
		MaxConns:  *maxconns,
		ShardOpts: shardOpts,
		Relaxed:   *relaxed,
		Sample:    *dFlag,
		RankBound: *rank,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dequed:", err)
		os.Exit(2)
	}

	mode := ""
	if *relaxed {
		mode = fmt.Sprintf(" relaxed(d=%d,rank-bound=%d)", *dFlag, *rank)
	}
	p.Banner = func(a net.Addr) string {
		return fmt.Sprintf("dequed: %d shards, route=%s steal=%v maxconns=%d%s on %s",
			*shards, policy, *steal, *maxconns, mode, a)
	}
	p.Serve = srv.Serve
	p.Shutdown = srv.Shutdown
	p.WriteMetrics = srv.writeMetrics
	p.Flight = srv.Pool()
	os.Exit(p.Run(context.Background()))
}

// writeMetrics renders the pool's counters, the service's latency
// histograms and, in relaxed mode, the rank-error distribution: the text
// of every /metrics scrape and of the final snapshot.
func (s *Server) writeMetrics(w io.Writer) error {
	if err := dq.WriteMetricsProm(w, "dequed", s.pool.Metrics()); err != nil {
		return err
	}
	if err := dq.WriteLatMetricsProm(w, "dequed", s.LatencySnapshot()); err != nil {
		return err
	}
	if s.rx == nil {
		return nil
	}
	return dq.WriteRelaxMetricsProm(w, "dequed", s.rx.RelaxMetrics())
}
