package main

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	dq "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// startServer runs an in-process dequed on an ephemeral port and returns
// it with its address. The server is shut down with the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// connResult is one conservation worker's ledger: pushes the server
// confirmed, values it popped, and pushes whose responses were thrown
// away by an abrupt disconnect (landed-or-not unknown).
type connResult struct {
	confirmed []uint32
	popped    []uint32
	maybe     []uint32
	err       error
}

// TestE2EConservation drives 64 concurrent client connections through a
// small-capacity sharded pool — plenty of ErrFull backpressure, steals
// across shards, and a few clients that hang up mid-stream without
// reading their last responses — then drains the pool and checks
// exactly-once conservation: every confirmed push is popped exactly
// once, nothing is popped twice, and nothing appears from thin air.
func TestE2EConservation(t *testing.T) {
	const (
		workers = 64
		rounds  = 50
		batch   = 8
	)
	srv, addr := startServer(t, Config{
		Shards:   4,
		Route:    dq.RouteKeyAffinity,
		Steal:    true,
		MaxConns: workers + 4,
		ShardOpts: []dq.Option{
			dq.WithNodeSize(8),
			dq.WithCapacity(256), // per shard: 64 pushers overrun this fast
		},
	})

	results := make([]connResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runConservationWorker(addr, w, rounds, batch)
		}(w)
	}
	wg.Wait()

	popSeen := make(map[uint32]bool)
	record := func(v uint32) {
		if popSeen[v] {
			t.Fatalf("value %#x popped twice", v)
		}
		popSeen[v] = true
	}
	universe := make(map[uint32]bool) // everything that may legally appear
	confirmed := make(map[uint32]bool)
	for w := range results {
		r := &results[w]
		if r.err != nil {
			t.Fatalf("worker %d: %v", w, r.err)
		}
		for _, v := range r.confirmed {
			confirmed[v] = true
			universe[v] = true
		}
		for _, v := range r.maybe {
			universe[v] = true
		}
		for _, v := range r.popped {
			record(v)
		}
	}

	// Quiescent drain: with stealing on, PopN returns 0 only after every
	// shard came up empty, so this loop empties the whole pool.
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for {
		vs, err := c.PopN(wire.Left, 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			break
		}
		for _, v := range vs {
			record(v)
		}
	}

	for v := range confirmed {
		if !popSeen[v] {
			t.Fatalf("confirmed push %#x never popped", v)
		}
	}
	for v := range popSeen {
		if !universe[v] {
			t.Fatalf("popped value %#x was never pushed", v)
		}
	}
	if n := srv.Pool().Len(); n != 0 {
		t.Fatalf("pool holds %d values after full drain", n)
	}
	if dq.MetricsEnabled {
		m := srv.Pool().Metrics()
		if m.Pushes() != m.Pops() || m.Pushes() != uint64(len(popSeen)) {
			t.Fatalf("metrics identity: pushes=%d pops=%d popped=%d",
				m.Pushes(), m.Pops(), len(popSeen))
		}
	}
}

// runConservationWorker drives one connection: batch pushes under its own
// key (value-tagged, globally unique), interleaved batch pops. Workers 60+
// are rude: halfway through they pipeline a final push burst, flush, and
// close without reading the responses — the landed-or-not limbo the
// conservation check must tolerate.
func runConservationWorker(addr string, w, rounds, batch int) connResult {
	var res connResult
	c, err := wire.Dial(addr)
	if err != nil {
		res.err = err
		return res
	}
	defer c.Close()

	key := uint64(w)
	seq := uint32(0)
	vs := make([]uint32, batch)
	next := func() uint32 {
		seq++
		return uint32(w)<<20 | seq
	}
	rude := w >= 60
	for r := 0; r < rounds; r++ {
		if rude && r == rounds/2 {
			for i := range vs {
				vs[i] = next()
			}
			req := wire.Request{Op: wire.OpPushN, Side: wire.Left, Key: key,
				Count: uint32(batch), Values: vs}
			if _, err := c.Send(&req); err != nil {
				res.err = err
				return res
			}
			if err := c.Flush(); err != nil {
				res.err = err
				return res
			}
			res.maybe = append(res.maybe, vs...)
			return res // abrupt close without Recv: responses are lost
		}
		for i := range vs {
			vs[i] = next()
		}
		n, err := c.PushN(wire.Left, key, vs)
		if err != nil && !errors.Is(err, dq.ErrFull) {
			res.err = err
			return res
		}
		res.confirmed = append(res.confirmed, vs[:n]...)
		if r%2 == 1 {
			got, err := c.PopN(wire.Right, key, batch)
			if err != nil {
				res.err = err
				return res
			}
			res.popped = append(res.popped, got...)
		}
	}
	return res
}

// TestRelaxedE2E serves through the d-choice relaxed front-end and checks
// the whole surface over the wire: conservation across concurrent
// connections (keys ignored, d-choice routing), the OpRelax snapshot
// (configuration gauges echoed, observed rank error within the bound),
// and OpLen keeping exact semantics against the relaxed Len estimate.
func TestRelaxedE2E(t *testing.T) {
	const (
		workers = 8
		rounds  = 60
		bound   = 64
	)
	srv, addr := startServer(t, Config{
		Shards:    4,
		Route:     dq.RouteRoundRobin,
		Steal:     true,
		MaxConns:  workers + 4,
		Relaxed:   true,
		Sample:    2,
		RankBound: bound,
		ShardOpts: []dq.Option{dq.WithNodeSize(8)},
	})
	if srv.Relaxed() == nil {
		t.Fatal("relaxed server did not build a Relaxed front-end")
	}

	type ledger struct {
		pushed []uint32
		popped []uint32
		err    error
	}
	results := make([]ledger, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				results[w].err = err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				v := uint32(w)<<20 | uint32(r+1)
				if err := c.Push(wire.Left, uint64(w), v); err != nil {
					results[w].err = err
					return
				}
				results[w].pushed = append(results[w].pushed, v)
				if r%2 == 1 {
					got, ok, err := c.Pop(wire.Right, uint64(w))
					if err != nil {
						results[w].err = err
						return
					}
					if ok {
						results[w].popped = append(results[w].popped, got)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := make(map[uint32]bool)
	seen := make(map[uint32]bool)
	for w := range results {
		if results[w].err != nil {
			t.Fatalf("worker %d: %v", w, results[w].err)
		}
		for _, v := range results[w].pushed {
			want[v] = true
		}
		for _, v := range results[w].popped {
			if seen[v] {
				t.Fatalf("value %#x popped twice", v)
			}
			seen[v] = true
		}
	}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// OpLen stays exact: the quiescent backlog equals pushes minus pops.
	n, err := c.Len()
	if err != nil {
		t.Fatal(err)
	}
	if backlog := len(want) - len(seen); n != backlog {
		t.Fatalf("Len = %d, want exact backlog %d", n, backlog)
	}
	for {
		vs, err := c.PopN(wire.Right, 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) == 0 {
			break
		}
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %#x popped twice in drain", v)
			}
			seen[v] = true
		}
	}
	for v := range want {
		if !seen[v] {
			t.Fatalf("pushed value %#x never popped", v)
		}
	}
	for v := range seen {
		if !want[v] {
			t.Fatalf("popped value %#x never pushed", v)
		}
	}

	rs, err := c.Relax()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Sample != 2 || rs.Shards != 4 || rs.RankBound != bound {
		t.Fatalf("Relax gauges = %+v, want sample 2, shards 4, bound %d", rs, bound)
	}
	if dq.MetricsEnabled {
		if rs.RankMax > bound {
			t.Fatalf("observed rank error %d exceeds bound %d", rs.RankMax, bound)
		}
		m := srv.Relaxed().RelaxMetrics()
		if m.Pops == 0 {
			t.Fatal("no relaxed pops recorded a rank estimate")
		}
	}
}

// TestStrictServerRelaxSnapshot checks a non-relaxed server answers
// OpRelax with an all-zero snapshot instead of an error, so probes can
// always ask.
func TestStrictServerRelaxSnapshot(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, Route: dq.RouteRoundRobin, Steal: true, MaxConns: 2})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Relax()
	if err != nil {
		t.Fatal(err)
	}
	if rs != (wire.RelaxStats{}) {
		t.Fatalf("strict server Relax = %+v, want zero snapshot", rs)
	}
}

// TestHandleFreelist runs far more sequential connections than MaxConns:
// registration is permanent per shard, so this only works if handles are
// parked and reborrowed across connections.
func TestHandleFreelist(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2, Route: dq.RouteRoundRobin, Steal: true, MaxConns: 2})
	for i := 0; i < 20; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Push(wire.Left, 0, uint32(i)); err != nil {
			t.Fatalf("conn %d push: %v", i, err)
		}
		if _, ok, err := c.Pop(wire.Right, 0); err != nil || !ok {
			t.Fatalf("conn %d pop: ok=%v err=%v", i, ok, err)
		}
		c.Flush()
		c.Close()
	}
}

// TestMalformedFrames checks the protocol edge: semantic garbage gets a
// StatusBad answer, framing garbage closes the connection, and neither
// disturbs later connections.
func TestMalformedFrames(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, Route: dq.RouteRoundRobin, Steal: false, MaxConns: 4})

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(&wire.Request{Op: 99})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBad {
		t.Fatalf("unknown op status = %d, want StatusBad", resp.Status)
	}
	resp, err = c.Do(&wire.Request{Op: wire.OpPush, Side: 7, Count: 1, Values: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBad {
		t.Fatalf("bad side status = %d, want StatusBad", resp.Status)
	}
	c.Close()

	// A truncated frame (length prefix promising more than arrives) must
	// just drop the connection.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x00, 0x00, 0x00, 0x12, 0xde, 0xad})
	conn.Close()

	// Server still serves new connections.
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("ping after malformed conn: %v", err)
	}
}

// TestGracefulDrain checks Shutdown semantics: polite clients finish and
// the drain returns nil; a lingering client forces the hard path, which
// reports the deadline and force-closes the connection.
func TestGracefulDrain(t *testing.T) {
	srv, err := NewServer(Config{Shards: 2, Route: dq.RouteRoundRobin, Steal: true, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// A polite client: works, then hangs up.
	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Push(wire.Left, 0, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown = %v, want nil", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	if n := srv.Pool().Len(); n != 100 {
		t.Fatalf("pool lost values across drain: Len = %d, want 100", n)
	}
}

// TestHardDrainTimeout: a client that never hangs up trips the drain
// deadline; Shutdown force-closes it and reports ctx.Err().
func TestHardDrainTimeout(t *testing.T) {
	srv, err := NewServer(Config{Shards: 1, Route: dq.RouteRoundRobin, Steal: true, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// The client lingers: no Close, no more frames.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve = %v", err)
	}
	// The force-closed connection surfaces as a transport error.
	if err := c.Ping(); err == nil {
		t.Fatal("ping on force-closed connection succeeded")
	}
}

// TestMemoryLimitStatusFull is the end-to-end memory-bound check: a shard
// built with WithMemoryLimit answers pushes past the node budget with
// StatusFull (surfacing as ErrFull at the client), pops make room again,
// and the connection stays healthy throughout.
func TestMemoryLimitStatusFull(t *testing.T) {
	_, addr := startServer(t, Config{
		Shards: 1, Route: dq.RouteRoundRobin, Steal: false, MaxConns: 4,
		ShardOpts: []dq.Option{
			dq.WithNodeSize(4),
			dq.WithMemoryLimit(8 * core.NodeFootprint(4)),
		},
	})
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var pushed int
	for i := 0; i < 200; i++ {
		err := c.Push(wire.Left, 0, uint32(i))
		if errors.Is(err, dq.ErrFull) {
			break
		}
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		pushed++
	}
	if pushed == 0 || pushed == 200 {
		t.Fatalf("pushed %d values: node budget never tripped as StatusFull", pushed)
	}
	for i := 0; i < pushed; i++ {
		if _, ok, err := c.Pop(wire.Right, 0); err != nil || !ok {
			t.Fatalf("pop %d of %d: ok=%v err=%v", i, pushed, ok, err)
		}
	}
	// The popped nodes sit in reclamation limbo — still charged against the
	// bound — until the connection's handle is flushed, which the server
	// does when the connection is released back to the freelist. Reconnect
	// and the budget is available again (recycled through the pool).
	c.Close()
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// The old connection's server-side Flush races with the reconnect;
	// retry until it lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c2.Push(wire.Left, 0, 7)
		if err == nil {
			break
		}
		if !errors.Is(err, dq.ErrFull) {
			t.Fatalf("push after reconnect: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("node budget still exhausted 5s after handle release")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, ok, err := c2.Pop(wire.Left, 0); err != nil || !ok || v != 7 {
		t.Fatalf("pop after recovery = (%d, %v, %v)", v, ok, err)
	}
}
