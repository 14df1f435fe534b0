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
	Bands     int         // priority bands (= pool shards behind the DEPQ)
	BandBound int         // worst-case priority inversion in bands (-1 = unbounded)
	Choice    int         // d-choice width inside the band window
	MaxConns  int         // concurrent connection (= DEPQ handle) cap
	ShardOpts []dq.Option // forwarded to every band (capacity, reclamation, ...)
}

// Server owns a DEPQ[uint32] and serves the scheduler subset of the wire
// protocol over TCP: OpPushPrio admits jobs by priority band (StatusFull
// is the load-shedding answer), OpPopMin hands workers the most urgent
// job, OpPopMax is the drop channel under overload, and OpDepq reports
// the observed priority-inversion snapshot. Connection lifecycle is the
// shared loop of internal/server, exactly as in cmd/dequed; only the
// operation set differs.
type Server struct {
	*server.Server[*dq.DEPQHandle[uint32]]
	q *dq.DEPQ[uint32]
}

// NewServer validates cfg and builds the DEPQ. MaxThreads for every band
// is derived from MaxConns (+1 for the process's own metrics/drain use),
// so callers need not pass it in ShardOpts.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Bands <= 0 {
		cfg.Bands = 8
	}
	if cfg.Choice <= 0 {
		cfg.Choice = 2
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	opts := append([]dq.Option{dq.WithMaxThreads(cfg.MaxConns + 1)}, cfg.ShardOpts...)
	depqOpts := []dq.DEPQOption{
		dq.WithBands(cfg.Bands),
		dq.WithBandChoice(cfg.Choice),
		dq.WithDEPQPool(dq.WithShardOptions(opts...)),
	}
	if cfg.BandBound >= 0 {
		depqOpts = append(depqOpts, dq.WithBandBound(cfg.BandBound))
	}
	q, err := dq.NewDEPQChecked[uint32](depqOpts...)
	if err != nil {
		return nil, err
	}
	s := &Server{q: q}
	s.Server = server.New(cfg.MaxConns, q.Register, s.apply, (*dq.DEPQHandle[uint32]).Flush)
	return s, nil
}

// DEPQ exposes the backing queue for the final metrics snapshot and tests.
func (s *Server) DEPQ() *dq.DEPQ[uint32] { return s.q }

// LatencySnapshot returns the exact merged latency histograms of the
// whole service: every band's per-op classes, the pool-level classes,
// and the server's per-connection service times.
func (s *Server) LatencySnapshot() *dq.LatSnapshotSet {
	set := s.ServiceLatency()
	set.Merge(s.q.LatencySnapshot())
	return set
}

// clampBand saturates the wire priority key into an int band. The DEPQ
// clamps again into [0, bands); this only guards the uint64→int cast.
func clampBand(key uint64) int {
	const maxInt = int(^uint(0) >> 1)
	if key > uint64(maxInt) {
		return maxInt
	}
	return int(key)
}

// apply executes one validated request against the connection's handle
// and fills resp. Statuses follow wire.StatusOf: the deque's error
// contract crosses the wire unchanged — StatusFull on OpPushPrio IS the
// load-shedding decision, made by the band's capacity bound.
func (s *Server) apply(ctx context.Context, h *dq.DEPQHandle[uint32], req *wire.Request, resp *wire.Response) {
	switch req.Op {
	case wire.OpPing:
		resp.Status = wire.StatusOK

	case wire.OpLen:
		resp.Status = wire.StatusOK
		resp.Count = uint32(s.q.LenExact())

	case wire.OpDepq:
		resp.Status = wire.StatusOK
		m := s.q.DepqMetrics()
		resp.Count = wire.Clamp32(m.InvMax)
		resp.Values = append(resp.Values,
			wire.Clamp32(m.BandBound), wire.Clamp32(m.Bands), wire.Clamp32(m.Choice),
			wire.Clamp32(uint64(m.MeanInv()*1000)))

	case wire.OpStats:
		resp.Status = wire.StatusOK
		resp.Values, resp.Count = wire.AppendOpStats(resp.Values, s.LatencySnapshot())

	case wire.OpPushPrio:
		err := h.PushCtx(ctx, req.Values[0], clampBand(req.Key))
		resp.Status = wire.StatusOf(err)
		if err == nil {
			resp.Count = 1
		}

	case wire.OpPopMin, wire.OpPopMax:
		var (
			v    uint32
			band int
			ok   bool
			err  error
		)
		if req.Op == wire.OpPopMin {
			v, band, ok, err = h.PopMinCtx(ctx)
		} else {
			v, band, ok, err = h.PopMaxCtx(ctx)
		}
		switch {
		case err != nil:
			resp.Status = wire.StatusOf(err)
		case !ok:
			resp.Status = wire.StatusEmpty
		default:
			resp.Status = wire.StatusOK
			resp.Count = 2
			resp.Values = append(resp.Values, v, uint32(band))
		}

	default:
		// The plain pool ops (OpPush…OpPopN, OpRelax) belong to cmd/dequed;
		// answering them here would silently bypass the priority contract.
		resp.Status = wire.StatusBad
	}
}
