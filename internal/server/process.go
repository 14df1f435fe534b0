package server

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// FlightSource is the flight recorder of the structure a process serves
// (a Deque, Pool or DEPQ).
type FlightSource interface {
	FlightRecords() []obs.FlightRecord
	FlightTotal() uint64
	SetFlightDump(w io.Writer, minInterval time.Duration)
}

// Process is the lifecycle the service binaries share (cmd/dequed,
// cmd/schedd): each fills in its flags, its banner and its metrics writer,
// and Run does the rest.
type Process struct {
	Name         string        // prefixes every diagnostic line
	Addr         string        // listen address
	AddrFile     string        // if set, receives the bound address
	Metrics      string        // HTTP address of the metrics server ("" disables)
	FlightDump   time.Duration // auto-dump interval for the flight recorder (0 disables)
	DrainTimeout time.Duration // graceful drain window before the hard stop

	// Banner returns the line printed to Stdout once the listener is
	// bound; perfbench and the smoke scripts read the address after its
	// last " on ".
	Banner func(addr net.Addr) string
	// Serve serves the bound listener until Shutdown closes it;
	// Shutdown drains, giving up when its context expires.
	Serve    func(net.Listener) error
	Shutdown func(context.Context) error
	// WriteMetrics renders the Prometheus text both /metrics and the
	// final snapshot show.
	WriteMetrics func(io.Writer) error
	Flight       FlightSource

	Stdout, Stderr io.Writer // nil: os.Stdout, os.Stderr
}

// Flags registers the shell's flags (-addr, -addr-file, -metrics,
// -flight-dump, -drain-timeout) on the command line and returns the
// Process that flag.Parse fills in; the caller sets the rest.
func Flags(name, addr string) *Process {
	p := &Process{Name: name}
	flag.StringVar(&p.Addr, "addr", addr, "TCP listen address (use :0 with -addr-file for an ephemeral port)")
	flag.StringVar(&p.AddrFile, "addr-file", "", "write the bound listen address to this file once listening")
	flag.StringVar(&p.Metrics, "metrics", "", "serve Prometheus /metrics and /debug/flightrecorder on this HTTP address (empty disables)")
	flag.DurationVar(&p.FlightDump, "flight-dump", 0, "auto-dump the flight recorder to stderr on watchdog distress, rate-limited to one dump per this interval (0 disables)")
	flag.DurationVar(&p.DrainTimeout, "drain-timeout", 5*time.Second, "graceful drain window on SIGTERM before in-flight ops are cancelled")
	return p
}

// Run binds the listener, writes AddrFile, arms the flight dump, starts
// the metrics server, prints the banner and serves until ctx ends or
// SIGINT/SIGTERM arrives. It then drains for up to DrainTimeout, stops
// the metrics server, writes the final snapshot to Stderr and returns
// the process exit code.
func (p *Process) Run(ctx context.Context) int {
	stdout, stderr := orStd(p.Stdout, os.Stdout), orStd(p.Stderr, os.Stderr)
	ln, err := net.Listen("tcp", p.Addr)
	if err != nil {
		p.logf("%v", err)
		return 1
	}
	if p.AddrFile != "" {
		if err := os.WriteFile(p.AddrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			p.logf("%v", err)
			return 1
		}
	}
	if p.FlightDump > 0 {
		p.Flight.SetFlightDump(stderr, p.FlightDump)
	}
	var msrv *http.Server
	if p.Metrics != "" {
		msrv = &http.Server{Addr: p.Metrics, Handler: p.metricsMux()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				p.logf("metrics server: %v", err)
			}
		}()
	}
	fmt.Fprintln(stdout, p.Banner(ln.Addr()))

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- p.Serve(ln) }()
	exit := 0
	select {
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		p.logf("draining (up to %s)", p.DrainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), p.DrainTimeout)
		if err := p.Shutdown(sctx); err != nil {
			p.logf("hard stop after drain timeout: %v", err)
		}
		cancel()
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			p.logf("%v", err)
			exit = 1
		}
	}
	if msrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := msrv.Shutdown(sctx); err != nil {
			p.logf("metrics server shutdown: %v", err)
		}
		cancel()
	}

	p.logf("final metrics snapshot")
	if err := p.WriteMetrics(stderr); err != nil {
		p.logf("%v", err)
	}
	if total := p.Flight.FlightTotal(); total > 0 {
		if err := obs.WriteFlightDump(stderr, p.Flight.FlightRecords(), total); err != nil {
			p.logf("%v", err)
		}
	}
	return exit
}

// metricsMux routes /metrics (WriteMetrics, fresh per scrape) and
// /debug/flightrecorder ({"total","records"} JSON).
func (p *Process) metricsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := p.WriteMetrics(rw); err != nil {
			p.logf("write /metrics: %v", err)
		}
	})
	mux.HandleFunc("/debug/flightrecorder", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		out := struct {
			Total   uint64             `json:"total"`
			Records []obs.FlightRecord `json:"records"`
		}{Total: p.Flight.FlightTotal(), Records: p.Flight.FlightRecords()}
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			p.logf("write /debug/flightrecorder: %v", err)
		}
	})
	return mux
}

func (p *Process) logf(format string, args ...any) {
	fmt.Fprintf(orStd(p.Stderr, os.Stderr), "%s: %s\n", p.Name, fmt.Sprintf(format, args...))
}

// orStd returns w, or std when w is nil.
func orStd(w, std io.Writer) io.Writer {
	if w != nil {
		return w
	}
	return std
}
