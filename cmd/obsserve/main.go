// Command obsserve runs a continuous mixed workload against the deque and
// serves its observability surface over HTTP — a worked example of wiring
// the metrics layer into a service, and a handy way to watch the transition
// mix evolve live.
//
// Endpoints:
//
//	/metrics              Prometheus text exposition of a fresh Metrics
//	                      snapshot, including the per-op-class latency
//	                      histograms and quantile gauges
//	/trace                JSON dump of the sampled-op ring (WithTracing)
//	/debug/flightrecorder JSON dump of the always-on distress-event ring
//	/debug/vars           expvar, including the deque under "deque"
//	/debug/pprof          pprof handlers; workers carry deque_op labels
//
// Example:
//
//	obsserve -addr :8723 -workers 4 -pattern deque -trace 1024 &
//	curl -s localhost:8723/metrics | grep op_latency
//	curl -s localhost:8723/debug/flightrecorder
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	dq "repro"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/xrand"
)

// newProcess wires d into the shared process shell: a drained HTTP
// server whose mux carries the shell's /metrics and /debug/flightrecorder
// plus /trace, expvar and pprof. Split from main so tests can drive the
// handlers through httptest and the lifecycle without flags.
func newProcess(d *dq.Deque[uint32], addr string, banner func(net.Addr) string) (*server.Process, *http.ServeMux) {
	p := &server.Process{
		Name:         "obsserve",
		Addr:         addr,
		DrainTimeout: 5 * time.Second,
		Banner:       banner,
		WriteMetrics: func(w io.Writer) error {
			if err := dq.WriteMetricsProm(w, "deque", d.Metrics()); err != nil {
				return err
			}
			return dq.WriteLatMetricsProm(w, "deque", d.LatencySnapshot())
		},
		Flight: d,
	}
	mux := http.NewServeMux()
	p.Handle(mux)
	mux.HandleFunc("/trace", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		recs := d.TraceRecords()
		out := struct {
			Total    uint64           `json:"total_sampled"`
			Records  []dq.TraceRecord `json:"records"`
			Rendered []string         `json:"rendered"`
		}{Total: d.TraceTotal(), Records: recs}
		for _, r := range recs {
			out.Rendered = append(out.Rendered, r.String())
		}
		if err := json.NewEncoder(rw).Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "obsserve: write /trace:", err)
		}
	})
	// A private mux gets no automatic debug handlers; register the expvar
	// and pprof surfaces explicitly.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Handler: mux}
	p.Serve = hs.Serve
	p.Shutdown = hs.Shutdown
	return p, mux
}

func main() {
	var (
		addr    = flag.String("addr", "localhost:8723", "HTTP listen address")
		workers = flag.Int("workers", 4, "workload goroutines")
		pattern = flag.String("pattern", "deque", "access pattern: deque, stack, or queue")
		elim    = flag.Bool("elim", false, "enable the elimination arrays")
		trace   = flag.Int("trace", 1024, "op-trace sample rate (0 disables /trace content)")
		seed    = flag.Uint64("seed", 1, "RNG seed")
	)
	flag.Parse()

	d, err := dq.NewChecked[uint32](
		dq.WithMaxThreads(*workers+1),
		dq.WithElimination(*elim),
		dq.WithTracing(*trace),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := d.PublishExpvar("deque"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	for w := 0; w < *workers; w++ {
		go func(w int) {
			// pprof labels let `go tool pprof -tagfocus deque_op=...`
			// slice the profile by workload role.
			obs.Do(*pattern, w, func() { drive(d, *pattern, *seed+uint64(w)*977) })
		}(w)
	}

	// Serve until SIGINT/SIGTERM; the drain lets in-flight scrapes finish
	// and the final snapshot on stderr keeps the run's evidence.
	p, _ := newProcess(d, *addr, func(a net.Addr) string {
		return fmt.Sprintf("obsserve: pattern=%s workers=%d elim=%v trace=%d obs=%v on http://%s",
			*pattern, *workers, *elim, *trace, dq.MetricsEnabled, a)
	})
	os.Exit(p.Run(context.Background()))
}

// drive runs one worker's endless workload loop under the given pattern.
func drive(d *dq.Deque[uint32], pattern string, seed uint64) {
	h := d.Register()
	rng := xrand.NewXoshiro256(seed)
	var i uint32
	for {
		i++
		v := i & 0x00FFFFFF
		switch pattern {
		case "stack":
			if rng.Intn(2) == 0 {
				h.PushLeft(v)
			} else {
				h.PopLeft()
			}
		case "queue":
			if rng.Intn(2) == 0 {
				h.PushLeft(v)
			} else {
				h.PopRight()
			}
		default: // deque: the paper's mixed 4-way workload
			switch rng.Intn(4) {
			case 0:
				h.PushLeft(v)
			case 1:
				h.PushRight(v)
			case 2:
				h.PopLeft()
			case 3:
				h.PopRight()
			}
		}
	}
}
