package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// fakeFlight is a fixed flight recorder: two retained records of three.
type fakeFlight struct{ armed bool }

func (*fakeFlight) FlightRecords() []obs.FlightRecord {
	return []obs.FlightRecord{{At: 1, Kind: obs.FlightEscalate}, {At: 2, Kind: obs.FlightRecover}}
}
func (*fakeFlight) FlightTotal() uint64                      { return 3 }
func (f *fakeFlight) SetFlightDump(io.Writer, time.Duration) { f.armed = true }

// TestProcessLifecycle runs the shell over the ping service: the banner
// comes only once the listener is bound, both HTTP endpoints answer, and
// cancelling the context drains — gracefully, or by the hard stop when a
// client lingers — before the final snapshot repeats the /metrics body.
func TestProcessLifecycle(t *testing.T) {
	const body = "fake_ops_total 7\n"
	for _, linger := range []bool{false, true} {
		ping, flight := newPing(2), &fakeFlight{}
		m, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		m.Close()
		stdout, banner := io.Pipe()
		var stderr strings.Builder
		p := &Process{
			Name:         "fake",
			Addr:         "127.0.0.1:0",
			AddrFile:     filepath.Join(t.TempDir(), "addr"),
			Metrics:      m.Addr().String(),
			FlightDump:   time.Second,
			DrainTimeout: time.Second,
			Banner:       func(a net.Addr) string { return "fake: ready on " + a.String() },
			Serve:        ping.srv.Serve,
			Shutdown:     ping.srv.Shutdown,
			WriteMetrics: func(w io.Writer) error { _, err := io.WriteString(w, body); return err },
			Flight:       flight,
			Stdout:       banner,
			Stderr:       &stderr,
		}
		ctx, cancel := context.WithCancel(context.Background())
		exit := make(chan int, 1)
		go func() { exit <- p.Run(ctx) }()

		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		addr := strings.TrimSuffix(line[strings.LastIndex(line, " on ")+4:], "\n")
		if f, _ := os.ReadFile(p.AddrFile); string(f) != addr || !flight.armed {
			t.Fatalf("banner %q: addr-file %q, flight dump armed %v", line, f, flight.armed)
		}
		c, err := wire.Dial(addr) // no retry: the banner promises a bound listener
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if got := get(t, "http://"+p.Metrics+"/metrics"); got != body {
			t.Fatalf("/metrics = %q, want %q", got, body)
		}
		var fr struct {
			Total   uint64             `json:"total"`
			Records []obs.FlightRecord `json:"records"`
		}
		err = json.Unmarshal([]byte(get(t, "http://"+p.Metrics+"/debug/flightrecorder")), &fr)
		if err != nil || fr.Total != 3 || len(fr.Records) != 2 {
			t.Fatalf("/debug/flightrecorder = %+v, %v", fr, err)
		}

		if !linger {
			c.Close()
		}
		cancel()
		if code := <-exit; code != 0 {
			t.Fatalf("linger=%v: exit code %d", linger, code)
		}
		c.Close()
		out := stderr.String()
		for _, want := range []string{"fake: draining", "fake: final metrics snapshot\n" + body, "flightrecorder: 2 records (3 total)"} {
			if !strings.Contains(out, want) {
				t.Errorf("linger=%v: stderr lacks %q:\n%s", linger, want, out)
			}
		}
		if hard := strings.Contains(out, "fake: hard stop after drain timeout"); hard != linger {
			t.Errorf("linger=%v: hard stop = %v:\n%s", linger, hard, out)
		}
	}
}

// get returns the body of GET url, retrying while the metrics server,
// which starts beside the banner, comes up.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	for try := 0; err != nil && try < 50; try++ {
		time.Sleep(20 * time.Millisecond)
		resp, err = http.Get(url)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return string(b)
}
