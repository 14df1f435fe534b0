package core

import (
	"time"

	"repro/internal/obs"
)

// This file is the core half of the observability layer (internal/obs): the
// deque-level Metrics aggregator and the single-op latency sampler. The
// per-transition counters themselves ride the hot paths in left.go,
// oracle.go, and batch.go as plain single-writer adds on each
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
	m.WatchdogThreshold = DefaultWatchdogThreshold
	m.NodesAllocated = uint64(d.reg.Allocated())
	m.NodesFreed = uint64(d.reg.Freed())
	m.NodesLive = m.NodesAllocated - m.NodesFreed
	m.NodeLimit = uint64(d.reg.Limit())
	ms := d.MemStats()
	m.MemNodesLive = uint64(ms.LiveNodes)
	m.MemNodesHighWater = uint64(ms.HighWater)
	m.MemLimitNodes = uint64(ms.LimitNodes)
	m.NodesRetired = ms.Retired
	m.NodesRecycled = ms.Recycled
	m.NodesLimbo = ms.Retired - ms.Freed
	m.NodesPooled = uint64(ms.Pooled)
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

// opStart opens a single operation or a whole batch call: it notes the op identity for the
// flight recorder (two plain stores on the handle's own lines) and
// decrements the latency sampler's countdown (Config.LatSample). The
// countdown is parked at MaxUint64 when latency recording is off, so an
// unsampled op — including every op on obsoff builds — pays one decrement
// and one never-taken branch, and the instruction stream is identical
// whether the observability layer is compiled in or out. Reports whether
// this op is sampled.
func (d *Deque) opStart(h *Handle, op obs.Op, side obs.Side) bool {
	h.curOp, h.curSide = op, side
	h.opTick--
	if h.opTick != 0 {
		return false
	}
	d.opStartSlow(h)
	return true
}

// opStartSlow rearms the countdown with a fresh pseudo-random gap of mean
// Config.LatSample (obs.LatGap) and stamps the sampled op's start. Kept
// out of line so opStart stays inlinable; reached once per sample.
//
//go:noinline
func (d *Deque) opStartSlow(h *Handle) {
	h.opTick = h.latGap.Next(d.latSample)
	h.sampleAt = time.Now()
}

// opEnd closes a single operation: a no-op (inlined to one register test)
// unless opStart sampled it. Every return path of a single op must pass
// opStart's answer here.
func (d *Deque) opEnd(sampled bool, h *Handle, op obs.Op, side obs.Side) {
	if !sampled {
		return
	}
	d.opEndSlow(h, op, side)
}

//go:noinline
func (d *Deque) opEndSlow(h *Handle, op obs.Op, side obs.Side) {
	h.lat.Record(obs.LatClassOf(op, side), uint64(time.Since(h.sampleAt)))
}

// batchEnd closes a batch call opened with opStart: a sampled call records
// its whole duration into class c (batch_push or batch_pop).
func (d *Deque) batchEnd(sampled bool, h *Handle, c obs.LatClass) {
	if sampled {
		h.lat.Record(c, uint64(time.Since(h.sampleAt)))
	}
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
