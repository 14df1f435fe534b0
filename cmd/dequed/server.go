package main

import (
	"context"

	dq "repro"
	"repro/internal/server"
	"repro/internal/wire"
)

// Config collects everything a Server needs. The zero value is not
// usable; main (and the tests) fill it from flags.
type Config struct {
	Shards    int            // pool width
	Route     dq.RoutePolicy // routing policy for every connection
	Steal     bool           // steal-on-empty rebalancing
	MaxConns  int            // concurrent connection (= pool handle) cap
	ShardOpts []dq.Option    // forwarded to every shard (capacity, node size, ...)

	// Relaxed serves every connection through a Relaxed[uint32] d-choice
	// front-end instead of policy routing: request keys are ignored,
	// ordering is relaxed across shards by at most RankBound, and OpRelax
	// reports the observed rank-error snapshot. Sample is the d-choice
	// width (0 = strict passthrough) and RankBound the worst-case
	// rank-error cap (0 = unbounded); both ignored unless Relaxed.
	Relaxed   bool
	Sample    int
	RankBound int
}

// Server owns a sharded deque pool and serves the wire protocol over TCP
// through the shared connection loop (internal/server): one goroutine
// per connection, each borrowing a pool handle from a fixed freelist.
type Server struct {
	*server.Server[*connHandle]
	pool *dq.Pool[uint32]
	rx   *dq.Relaxed[uint32] // non-nil in relaxed mode; pool == rx.Pool()
}

// NewServer validates cfg and builds the pool. MaxThreads for every shard
// is derived from MaxConns (+1 for the process's own metrics/drain use),
// so callers need not pass it in ShardOpts.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	opts := append([]dq.Option{dq.WithMaxThreads(cfg.MaxConns + 1)}, cfg.ShardOpts...)
	poolOpts := []dq.PoolOption{
		dq.WithRouting(cfg.Route),
		dq.WithStealing(cfg.Steal),
		dq.WithShardOptions(opts...),
	}
	var (
		pool *dq.Pool[uint32]
		rx   *dq.Relaxed[uint32]
		err  error
	)
	if cfg.Relaxed {
		rx, err = dq.NewRelaxedChecked[uint32](cfg.Shards,
			dq.WithRelaxation(cfg.Sample),
			dq.WithRankBound(cfg.RankBound),
			dq.WithRelaxedPool(poolOpts...),
		)
		if err == nil {
			pool = rx.Pool()
		}
	} else {
		pool, err = dq.NewPoolChecked[uint32](cfg.Shards, poolOpts...)
	}
	if err != nil {
		return nil, err
	}
	s := &Server{pool: pool, rx: rx}
	s.Server = server.New(cfg.MaxConns, s.register, s.apply, (*connHandle).flush)
	return s, nil
}

// Pool exposes the backing pool for the final metrics snapshot and tests.
func (s *Server) Pool() *dq.Pool[uint32] { return s.pool }

// Relaxed exposes the relaxed front-end (nil unless Config.Relaxed).
func (s *Server) Relaxed() *dq.Relaxed[uint32] { return s.rx }

// LatencySnapshot returns the exact merged latency histograms of the
// whole service: every shard's per-op classes, the pool-level routing
// classes, and the server's per-connection service times.
func (s *Server) LatencySnapshot() *dq.LatSnapshotSet {
	set := s.ServiceLatency()
	set.Merge(s.pool.LatencySnapshot())
	return set
}

// connHandle is one connection's accessor: the pool handle in strict
// mode, the relaxed handle when the server fronts the pool with
// Relaxed[uint32] (exactly one is non-nil), plus the reusable pop buffer.
type connHandle struct {
	ph  *dq.PoolHandle[uint32]
	rh  *dq.RelaxedHandle[uint32]
	dst []uint32
}

// register creates the accessor for a new connection.
func (s *Server) register() *connHandle {
	if s.rx != nil {
		return &connHandle{rh: s.rx.Register()}
	}
	return &connHandle{ph: s.pool.Register()}
}

// flush parks the handle cleanly before it returns to the freelist.
func (h *connHandle) flush() {
	if h.rh != nil {
		h.rh.Flush()
		return
	}
	h.ph.Flush()
}

// apply executes one validated request against the connection's handle
// and fills resp. Statuses follow wire.StatusOf: the deque's error
// contract crosses the wire unchanged. In relaxed mode the key is
// ignored — d-choice selection replaces routing.
func (s *Server) apply(ctx context.Context, h *connHandle, req *wire.Request, resp *wire.Response) {
	left := req.Side == wire.Left
	switch req.Op {
	case wire.OpPing:
		resp.Status = wire.StatusOK

	case wire.OpLen:
		resp.Status = wire.StatusOK
		resp.Count = uint32(s.pool.LenExact())

	case wire.OpRelax:
		resp.Status = wire.StatusOK
		var m dq.RelaxMetrics
		if s.rx != nil {
			m = s.rx.RelaxMetrics()
		}
		resp.Count = wire.Clamp32(m.RankMax)
		resp.Values = append(resp.Values,
			wire.Clamp32(m.RankBound), wire.Clamp32(m.Sample), wire.Clamp32(m.Shards),
			wire.Clamp32(uint64(m.MeanRank()*1000)))

	case wire.OpStats:
		resp.Status = wire.StatusOK
		resp.Values, resp.Count = wire.AppendOpStats(resp.Values, s.LatencySnapshot())

	case wire.OpPush:
		var err error
		switch {
		case h.rh != nil && left:
			err = h.rh.PushLeftCtx(ctx, req.Values[0])
		case h.rh != nil:
			err = h.rh.PushRightCtx(ctx, req.Values[0])
		case left:
			err = h.ph.PushLeftCtx(ctx, req.Key, req.Values[0])
		default:
			err = h.ph.PushRightCtx(ctx, req.Key, req.Values[0])
		}
		resp.Status = wire.StatusOf(err)
		if err == nil {
			resp.Count = 1
		}

	case wire.OpPop:
		var (
			v   uint32
			ok  bool
			err error
		)
		switch {
		case h.rh != nil && left:
			v, ok, err = h.rh.PopLeftCtx(ctx)
		case h.rh != nil:
			v, ok, err = h.rh.PopRightCtx(ctx)
		case left:
			v, ok, err = h.ph.PopLeftCtx(ctx, req.Key)
		default:
			v, ok, err = h.ph.PopRightCtx(ctx, req.Key)
		}
		switch {
		case err != nil:
			resp.Status = wire.StatusOf(err)
		case !ok:
			resp.Status = wire.StatusEmpty
		default:
			resp.Status = wire.StatusOK
			resp.Count = 1
			resp.Values = append(resp.Values, v)
		}

	case wire.OpPushN:
		var (
			n   int
			err error
		)
		switch {
		case h.rh != nil && left:
			n, err = h.rh.PushLeftN(req.Values)
		case h.rh != nil:
			n, err = h.rh.PushRightN(req.Values)
		case left:
			n, err = h.ph.PushLeftN(req.Key, req.Values)
		default:
			n, err = h.ph.PushRightN(req.Key, req.Values)
		}
		resp.Status = wire.StatusOf(err)
		resp.Count = uint32(n)

	case wire.OpPopN:
		want := int(req.Count)
		if cap(h.dst) < want {
			h.dst = make([]uint32, want)
		}
		d := h.dst[:want]
		var n int
		switch {
		case h.rh != nil && left:
			n = h.rh.PopLeftN(d)
		case h.rh != nil:
			n = h.rh.PopRightN(d)
		case left:
			n = h.ph.PopLeftN(req.Key, d)
		default:
			n = h.ph.PopRightN(req.Key, d)
		}
		if n == 0 {
			resp.Status = wire.StatusEmpty
		} else {
			resp.Status = wire.StatusOK
			resp.Count = uint32(n)
			resp.Values = append(resp.Values, d[:n]...)
		}

	default:
		// Validate admits every op the protocol knows, but this server only
		// serves the plain pool ops — the DEPQ family (OpPushPrio…OpDepq)
		// belongs to cmd/schedd. A zero-value fallthrough would answer
		// StatusOK for an op that did nothing.
		resp.Status = wire.StatusBad
	}
}
