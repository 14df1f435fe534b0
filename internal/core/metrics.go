package core

import (
	"time"

	"repro/internal/obs"
)

// This file is the core half of the observability layer (internal/obs): the
// deque-level Metrics aggregator and the sampled op tracer's hooks. The
// per-transition counters themselves ride the hot paths in left.go,
// right.go, oracle.go, and batch.go as plain single-writer adds on each
// handle's padded counter block (Handle.rec); building with -tags obsoff
// compiles all of them away.

// Metrics merges every handle's counters into one deque-level snapshot and
// fills in the structural occupancy gauges. It is safe to call concurrently
// with operations; each counter is individually monotone across snapshots
// (the merge is serialized, and handles only ever increment). Counters of
// handles whose goroutines have exited remain included.
func (d *Deque) Metrics() obs.Metrics {
	m := obs.FromCounters(d.obsReg.Merge())
	m.Handles = d.obsReg.Handles()
	m.WatchdogThreshold = d.watchdog
	m.NodesAllocated = uint64(d.reg.Allocated())
	m.NodesFreed = uint64(d.reg.Freed())
	m.NodesLive = m.NodesAllocated - m.NodesFreed
	m.NodeLimit = uint64(d.reg.Limit())
	if d.cfg.recycling() {
		ms := d.MemStats()
		m.MemNodesLive = uint64(ms.LiveNodes)
		m.MemNodesHighWater = uint64(ms.HighWater)
		m.MemLimitNodes = uint64(ms.LimitNodes)
		m.NodesRetired = ms.Retired
		m.NodesRecycled = ms.Recycled
		m.NodesLimbo = ms.Retired - ms.Freed
		m.NodesPooled = uint64(ms.Pooled)
	}
	m.Latency = d.latReg.Merge().Summaries()
	m.FlightRecords = d.flight.Total()
	return m
}

// LatencySnapshot merges every handle's latency recorder into one exact
// full-resolution snapshot set (for Prometheus export or exact cross-deque
// merging; Metrics().Latency is the digest form).
func (d *Deque) LatencySnapshot() *obs.LatSnapshotSet { return d.latReg.Merge() }

// Flight returns the deque's flight recorder: the always-on distress-event
// ring fed by watchdog escalations and streak recoveries. Never nil.
func (d *Deque) Flight() *obs.Flight { return d.flight }

// TraceRecords returns the sampled-op ring's contents, oldest first, or nil
// when tracing is disabled (Config.TraceSample == 0).
func (d *Deque) TraceRecords() []obs.TraceRecord {
	if d.tracer == nil {
		return nil
	}
	return d.tracer.Records()
}

// TraceTotal returns how many operations have been sampled in total
// (including records already overwritten in the ring); 0 when tracing is
// disabled.
func (d *Deque) TraceTotal() uint64 {
	if d.tracer == nil {
		return 0
	}
	return d.tracer.Total()
}

// opTrace carries a sampled operation's starting state from opStart to
// opEnd: wall-clock start, which samplers fired (latency histogram, op
// tracer, or both), and — for trace samples — the retry counter and the
// handle's full counter block, whose diff afterwards recovers which
// transitions the op took without threading state through the transition
// functions.
type opTrace struct {
	start    time.Time
	lat      bool // record into the latency histograms at opEnd
	trace    bool // record a TraceRecord at opEnd
	retries  uint64
	counters [obs.NumCounters]uint64
}

// opStart opens a single operation: it notes the op identity for the
// flight recorder (two plain stores on the handle's own lines) and
// decrements the shared sampling countdown that serves both the latency
// histograms (Config.LatSample) and the op tracer (Config.TraceSample).
// The countdown is armed to whichever sampler fires next and parked at
// MaxUint64 when neither is on, so an unsampled op — including every op
// on obsoff builds — pays one decrement and one never-taken branch, and
// the instruction stream is identical whether the observability layer is
// compiled in or out. Returns nil unless this op is sampled.
func (d *Deque) opStart(h *Handle, op obs.Op, side obs.Side) *opTrace {
	h.curOp, h.curSide = op, side
	h.opTick--
	if h.opTick != 0 {
		return nil
	}
	return d.opStartSlow(h)
}

// opStartSlow fires the sampler(s) whose countdown elapsed, rearms the
// shared wheel to the next event, and builds the sampled op's token. Kept
// out of line so opStart stays inlinable; reached once per sampling
// interval.
//
//go:noinline
func (d *Deque) opStartSlow(h *Handle) *opTrace {
	elapsed := h.opChunk
	tr := &opTrace{start: time.Now()}
	h.traceLeft -= elapsed // parked samplers stay ~MaxUint64
	if h.traceLeft == 0 {
		tr.trace = true
		tr.retries = h.Retries
		tr.counters = h.rec.Snapshot()
		h.traceLeft = uint64(d.tracer.Sample())
	}
	h.latLeft -= elapsed
	if h.latLeft == 0 {
		tr.lat = true
		h.latLeft = uint64(d.latSample)
	}
	h.armTick()
	if !tr.trace && !tr.lat {
		return nil
	}
	return tr
}

// armTick points the shared countdown at the nearest sampler event.
func (h *Handle) armTick() {
	n := h.traceLeft
	if h.latLeft < n {
		n = h.latLeft
	}
	h.opChunk = n
	h.opTick = n
}

// latNow returns the current time when latency recording is on — the
// always-record variant used by batch ops and other amortized or rare
// paths where sampling would only hide the tail.
func (d *Deque) latNow() (t time.Time) {
	if obs.Enabled && d.latSample != 0 {
		t = time.Now()
	}
	return
}

// opEnd closes a single operation: a no-op (inlined to one register test)
// unless opStart sampled it. Every return path of a single op must pass
// its token here.
func (d *Deque) opEnd(tr *opTrace, h *Handle, op obs.Op, side obs.Side, aborted bool) {
	if tr == nil {
		return
	}
	d.opEndSlow(tr, h, op, side, aborted)
}

//go:noinline
func (d *Deque) opEndSlow(tr *opTrace, h *Handle, op obs.Op, side obs.Side, aborted bool) {
	ns := time.Since(tr.start).Nanoseconds()
	if obs.Enabled && tr.lat {
		h.lat.Record(obs.LatClassOf(op, side), uint64(ns))
	}
	if tr.trace {
		d.tracer.Record(obs.TraceRecord{
			At:          tr.start.UnixNano(),
			Op:          op,
			Side:        side,
			Transitions: obs.DiffMask(tr.counters, h.rec.Snapshot()),
			Attempts:    h.Retries - tr.retries,
			Ns:          ns,
			Aborted:     aborted,
		})
	}
}

// latEndAt records the elapsed time since t into class c — the closing
// half of latNow. A zero start (recording off) returns immediately.
func (d *Deque) latEndAt(h *Handle, c obs.LatClass, t time.Time) {
	if !obs.Enabled || t.IsZero() {
		return
	}
	h.lat.Record(c, uint64(time.Since(t)))
}

// flightEscalate writes a watchdog-escalation record: the op in distress,
// the streak length, and the transition-counter mask accumulated since the
// streak's stamp point (streakStampAt failures in) — enough to reconstruct
// which paper transitions the stalled op kept failing at.
func (d *Deque) flightEscalate(h *Handle) {
	h.escalated = true
	var ns int64
	if obs.Enabled && !h.streakStart.IsZero() {
		ns = time.Since(h.streakStart).Nanoseconds()
	}
	d.flight.Record(obs.FlightRecord{
		At:          time.Now().UnixNano(),
		Kind:        obs.FlightEscalate,
		Op:          h.curOp,
		Side:        h.curSide,
		Transitions: obs.DiffMask(h.streakBase, h.rec.Snapshot()),
		Streak:      h.consecFails,
		Escalations: h.LivelockEscalations,
		Tid:         h.tid,
		Ns:          ns,
	})
}

// flightRecover closes an escalated streak on its first success: the record
// carries the full streak length and span, and the mask now includes the
// transition that finally went through.
func (d *Deque) flightRecover(h *Handle) {
	h.escalated = false
	var ns int64
	if obs.Enabled && !h.streakStart.IsZero() {
		ns = time.Since(h.streakStart).Nanoseconds()
	}
	d.flight.Record(obs.FlightRecord{
		At:          time.Now().UnixNano(),
		Kind:        obs.FlightRecover,
		Op:          h.curOp,
		Side:        h.curSide,
		Transitions: obs.DiffMask(h.streakBase, h.rec.Snapshot()),
		Streak:      h.consecFails,
		Escalations: h.LivelockEscalations,
		Tid:         h.tid,
		Ns:          ns,
	})
}
