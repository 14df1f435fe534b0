package server

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// pingService is the smallest service over the shared loop: a handle
// carries no state, OpPing answers OK, OpStats reports the loop's own
// service histograms, and every other op is refused.
type pingService struct {
	srv        *Server[*int]
	registered atomic.Int32
	applied    atomic.Int32
	flushed    atomic.Int32
}

func newPing(maxConns int) *pingService {
	p := &pingService{}
	p.srv = New(maxConns,
		func() *int { p.registered.Add(1); return new(int) },
		func(_ context.Context, _ *int, req *wire.Request, resp *wire.Response) {
			p.applied.Add(1)
			switch req.Op {
			case wire.OpPing:
				resp.Status = wire.StatusOK
			case wire.OpStats:
				resp.Status = wire.StatusOK
				resp.Values, resp.Count = wire.AppendOpStats(resp.Values, p.srv.ServiceLatency())
			default:
				resp.Status = wire.StatusBad
			}
		},
		func(*int) { p.flushed.Add(1) })
	return p
}

func startPing(t *testing.T, maxConns int) (*pingService, string) {
	t.Helper()
	p := newPing(maxConns)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.srv.Serve(ln) }()
	t.Cleanup(func() {
		p.shutdown(t)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return p, ln.Addr().String()
}

func (p *pingService) shutdown(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestServiceTimingSampled pins the service-time cadence: one request in
// obs.DefaultLatSample per handle is timed on average, each gap drawn from
// [L-L/2, L+L/2] for L = DefaultLatSample (obs.LatGap), so a pipelined
// connection of n requests reports between n/(L+L/2) and n/(L-L/2)
// service samples, not n.
func TestServiceTimingSampled(t *testing.T) {
	_, addr := startPing(t, 1)
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const (
		burst = 256
		n     = 3*obs.DefaultLatSample + 100
	)
	for sent := 0; sent < n; {
		k := min(burst, n-sent)
		for i := 0; i < k; i++ {
			if _, err := c.Send(&wire.Request{Op: wire.OpPing}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			resp, err := c.Recv()
			if err != nil || resp.Status != wire.StatusOK {
				t.Fatalf("ping %d: %+v, %v", sent+i, resp, err)
			}
		}
		sent += k
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var service uint64
	for _, st := range stats {
		if st.Class == "service" {
			service = st.Count
		}
	}
	const l = obs.DefaultLatSample
	lo, hi := uint64(n/(l+l/2)), uint64(n/(l-l/2))
	if !obs.Enabled {
		lo, hi = 0, 0
	}
	if service < lo || service > hi {
		t.Fatalf("service samples after %d requests = %d, want [%d, %d]", n, service, lo, hi)
	}
}

// TestLoopValidatesAndReusesHandles checks the loop's contract with a
// service: frames that fail wire.Request.Validate are answered StatusBad
// without reaching apply, and connection churn beyond maxConns reuses the
// registered handles, each flushed when its connection ends.
func TestLoopValidatesAndReusesHandles(t *testing.T) {
	p, addr := startPing(t, 1)
	const conns = 5
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(&wire.Request{Op: wire.OpPush, Side: wire.Left, Count: 1}) // no value
		if err != nil || resp.Status != wire.StatusBad {
			t.Fatalf("conn %d: malformed push answered %+v, %v; want StatusBad", i, resp, err)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("conn %d: ping: %v", i, err)
		}
		c.Close()
	}
	p.shutdown(t) // waits for every connection goroutine to park its handle
	if got := p.applied.Load(); got != conns {
		t.Fatalf("apply ran %d times, want %d (pings only)", got, conns)
	}
	if got := p.registered.Load(); got != 1 {
		t.Fatalf("registered %d handles for %d sequential connections, want 1", got, conns)
	}
	if got := p.flushed.Load(); got != conns {
		t.Fatalf("flushed %d times, want %d (once per connection)", got, conns)
	}
}
