// Package server is the connection side the wire-protocol services share
// (cmd/dequed over a Pool or Relaxed front-end, cmd/schedd over a DEPQ):
// the accept loop, graceful and hard drain, the handle freelist, and the
// pipelined request loop with its sampled service timing. A service
// supplies how to register a handle, apply a validated request with it,
// and park it between connections. Process is the lifecycle around it:
// listener, metrics server, signal drain and final snapshot.
package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Server serves the wire protocol over TCP with one goroutine per
// connection. Each connection borrows a handle of type H from a fixed
// freelist for its lifetime: handle registration is permanent (each
// shard admits at most MaxThreads handles, ever), so the freelist is what
// lets connection churn run forever on a bounded structure.
type Server[H any] struct {
	maxConns int
	register func() H
	apply    func(ctx context.Context, h H, req *wire.Request, resp *wire.Response)
	flush    func(h H)

	// ctx cancels in-flight blocked operations on hard shutdown; apply
	// receives it for every request.
	ctx    context.Context
	cancel context.CancelFunc

	// Handle freelist: acquire prefers a parked handle, registers a new
	// one while under the cap, and otherwise waits for a connection to
	// finish. cap(handles) == maxConns so release never blocks.
	handles    chan *handle[H]
	hmu        sync.Mutex
	registered int

	// latReg holds per-handle service-time recorders (the "service"
	// latency class: frame decoded → reply flushed, queueing included).
	latReg obs.LatRegistry

	lnMu sync.Mutex
	ln   net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// handle is one registered service handle plus its service-time recorder
// and sampling counter; both travel with it through the freelist.
type handle[H any] struct {
	h    H
	lat  *obs.LatRec // single-writer service-time histogram
	tick uint64      // requests left until the next sampled one
	gap  obs.LatGap  // rearms tick
}

// New returns a server that admits at most maxConns concurrent
// connections. register creates a connection's handle (called at most
// maxConns times); apply executes one request that passed
// wire.Request.Validate and fills resp's Status, Count and Values; flush
// parks a handle before it returns to the freelist.
func New[H any](maxConns int, register func() H,
	apply func(ctx context.Context, h H, req *wire.Request, resp *wire.Response),
	flush func(h H)) *Server[H] {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server[H]{
		maxConns: maxConns,
		register: register,
		apply:    apply,
		flush:    flush,
		ctx:      ctx,
		cancel:   cancel,
		handles:  make(chan *handle[H], maxConns),
		conns:    make(map[net.Conn]struct{}),
	}
}

// ServiceLatency returns the merged service-time histograms of every
// handle; a service merges its structure's own op classes on top.
func (s *Server[H]) ServiceLatency() *obs.LatSnapshotSet { return s.latReg.Merge() }

// Serve accepts connections on ln until the listener closes (Shutdown
// does that). A closed listener is a clean return, not an error.
func (s *Server[H]) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// Shutdown drains gracefully: the listener closes (no new connections),
// existing connections keep being answered until they hang up, and only
// once ctx expires are in-flight operations cancelled and connections
// force-closed. Returns nil on a clean drain, ctx.Err() on the hard path.
func (s *Server[H]) Shutdown(ctx context.Context) error {
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Hard stop: abort blocked Ctx operations, then unblock reads.
	s.cancel()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	<-done
	return ctx.Err()
}

// acquireHandle borrows a handle for one connection's lifetime.
func (s *Server[H]) acquireHandle() (*handle[H], error) {
	select {
	case h := <-s.handles:
		return h, nil
	default:
	}
	s.hmu.Lock()
	if s.registered < s.maxConns {
		s.registered++
		seed := uint64(s.registered)*0x9e3779b97f4a7c15 + 3
		s.hmu.Unlock()
		h := &handle[H]{h: s.register(), lat: s.latReg.NewRec()}
		h.gap = obs.NewLatGap(seed)
		h.tick = h.gap.Next(obs.DefaultLatSample)
		return h, nil
	}
	s.hmu.Unlock()
	select {
	case h := <-s.handles:
		return h, nil
	case <-s.ctx.Done():
		return nil, s.ctx.Err()
	}
}

// serveConn runs one connection's request loop: read a frame, apply it,
// append the response, and flush only when the read buffer runs dry —
// that last rule is what makes pipelining pay (one flush per burst, not
// per frame). Any read error — clean EOF, mid-frame disconnect, protocol
// desync — ends the connection; the service's state is always consistent
// because every accepted operation completed before its response was
// queued.
//
// Service time is sampled like the pool's single ops, one request in
// obs.DefaultLatSample per handle on average (obs.LatGap): two clock reads cost about half of a
// whole request's server time, far over the observability budget.
func (s *Server[H]) serveConn(conn net.Conn) {
	defer conn.Close()
	h, err := s.acquireHandle()
	if err != nil {
		return // shutting down
	}
	// Flush before parking: return cached slab capacity and drain pending
	// node retires, so a handle idling in the freelist neither strands
	// slab indices nor stalls node recycling for the whole structure.
	defer func() { s.flush(h.h); s.handles <- h }()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var (
		req     wire.Request
		resp    wire.Response
		scratch []byte
		out     []byte
	)
	for {
		scratch, err = wire.ReadRequest(br, &req, scratch)
		if err != nil {
			return
		}
		var svc time.Time
		if obs.Enabled {
			if h.tick--; h.tick == 0 {
				h.tick = h.gap.Next(obs.DefaultLatSample)
				svc = time.Now()
			}
		}
		resp.Tag = req.Tag
		resp.Count = 0
		resp.Values = resp.Values[:0]
		if resp.Status = req.Validate(); resp.Status == wire.StatusOK {
			s.apply(s.ctx, h.h, &req, &resp)
		}
		out = wire.AppendResponse(out[:0], &resp)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
		// Service time spans frame decoded → reply handed to the kernel
		// (or queued behind a pipelined burst) — the server-side half of
		// what a closed-loop client observes as round-trip latency.
		if obs.Enabled && !svc.IsZero() {
			h.lat.Record(obs.LatService, uint64(time.Since(svc)))
		}
	}
}
