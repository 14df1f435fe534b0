// Command schedd serves a deadline-aware job scheduler over TCP: a
// DEPQ[uint32] — K priority bands over the sharded deque pool, band 0
// most urgent — spoken through the internal/wire protocol's DEPQ frames.
// Producers submit jobs with OpPushPrio (priority in the key field);
// workers take the most urgent job with OpPopMin; an overload controller
// drops the most shed-able job with OpPopMax. Admission control is the
// deque's own capacity bound: a full band answers STATUS_FULL, which IS
// the load-shedding decision — the client retries, degrades, or drops.
//
// The scheduler's priority relaxation is bounded and measured:
// -band-bound caps how many priority classes a pop may skip, and OpDepq
// (or /metrics) reports the inversion actually observed.
//
// Lifecycle is cmd/dequed's (internal/server.Process): SIGINT/SIGTERM
// starts a graceful drain, and the /metrics text goes to stderr at exit.
//
// Example:
//
//	schedd -addr :7421 -bands 8 -band-bound 2 -metrics localhost:7422 &
//	dqload -addr localhost:7421 -deadline -conns 8 -duration 5s
//	curl -s localhost:7422/metrics | grep depq_inversion
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
	p := server.Flags("schedd", "localhost:7421")
	var (
		bands    = flag.Int("bands", 8, "priority bands (band 0 most urgent; one pool shard each)")
		bound    = flag.Int("band-bound", -1, "worst-case priority inversion in bands (0 = strict priority, -1 = unbounded)")
		choice   = flag.Int("choice", 2, "d-choice width: bands sampled inside the inversion window per pop")
		capacity = flag.Int("capacity", 0, "per-band job capacity (0 = default); full bands shed with STATUS_FULL")
		maxconns = flag.Int("maxconns", 64, "concurrent connection cap (DEPQ handles are pooled up to this)")
	)
	flag.Parse()

	var shardOpts []dq.Option
	if *capacity > 0 {
		shardOpts = append(shardOpts, dq.WithCapacity(*capacity))
	}
	srv, err := NewServer(Config{
		Bands:     *bands,
		BandBound: *bound,
		Choice:    *choice,
		MaxConns:  *maxconns,
		ShardOpts: shardOpts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(2)
	}

	p.Banner = func(a net.Addr) string {
		return fmt.Sprintf("schedd: %d bands, band-bound=%d choice=%d maxconns=%d on %s",
			srv.DEPQ().Bands(), srv.DEPQ().BandBound(), srv.DEPQ().Choice(), *maxconns, a)
	}
	p.Serve = srv.Serve
	p.Shutdown = srv.Shutdown
	p.WriteMetrics = srv.writeMetrics
	p.Flight = srv.DEPQ()
	os.Exit(p.Run(context.Background()))
}

// writeMetrics renders the bands' counters, the service's latency
// histograms and the priority-inversion distribution: the text of every
// /metrics scrape and of the final snapshot.
func (s *Server) writeMetrics(w io.Writer) error {
	if err := dq.WriteMetricsProm(w, "schedd", s.q.Metrics()); err != nil {
		return err
	}
	if err := dq.WriteLatMetricsProm(w, "schedd", s.LatencySnapshot()); err != nil {
		return err
	}
	return dq.WriteDepqMetricsProm(w, "schedd", s.q.DepqMetrics())
}
