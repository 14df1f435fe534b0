package deque

import (
	"io"
	"time"

	"repro/internal/obs"
)

// MetricsEnabled reports whether the observability counters are compiled
// in. It is false only under the `obsoff` build tag, in which case every
// counter in Metrics is zero (the gauges and Handles still work).
const MetricsEnabled = obs.Enabled

// Metrics is one aggregated observability snapshot of a deque: the merged
// per-handle transition/empty-check/CAS-failure counters (see
// docs/ALGORITHM.md for the counter-to-paper mapping) plus occupancy
// gauges. All counter fields are monotone across snapshots of the same
// deque.
type Metrics = obs.Metrics

// Derived holds the rates computed from a Metrics snapshot by
// Metrics.Derive: straddle ratio, seal rate, CAS-failure ratio, mean
// oracle hops per op, elimination rate, edge-cache hit rate.
type Derived = obs.Derived

// Metrics returns an aggregated snapshot of this deque's observability
// counters and occupancy gauges. Safe to call concurrently with
// operations; each counter is individually monotone across snapshots.
func (d *Deque[T]) Metrics() Metrics {
	m := d.core.Metrics()
	m.ValuesHighWater = uint64(d.slab.HighWater())
	m.ValueCapacity = uint64(d.slab.Limit())
	return m
}

// Metrics returns an aggregated snapshot of this deque's observability
// counters and occupancy gauges (the value-slab gauges stay zero: Uint32
// stores values directly in the slots).
func (d *Uint32) Metrics() Metrics { return d.core.Metrics() }

// WriteMetricsProm writes m in Prometheus text exposition format, every
// series prefixed with prefix (e.g. "deque"). Pair with a Metrics() call
// inside an http.Handler for a scrape endpoint; cmd/dequed's -metrics
// server is a worked example.
func WriteMetricsProm(w io.Writer, prefix string, m Metrics) error {
	return obs.WriteProm(w, prefix, m)
}

// LatClassSummary is one operation class's latency digest from a Metrics
// snapshot: count, mean, and log-bucketed quantiles (p50/p90/p99/p99.9,
// ~3% relative error) in nanoseconds. Metrics.Latency holds one per class
// that recorded anything; see WithLatencySample for what is timed.
type LatClassSummary = obs.LatClassSummary

// LatSnapshotSet is the exact full-resolution form of a deque's latency
// histograms — one log-bucketed histogram per operation class. Unlike the
// digest in Metrics.Latency, sets merge exactly (Merge adds bucket
// counts), which is how Pool aggregates shards; WriteLatMetricsProm
// renders one in Prometheus exposition format.
type LatSnapshotSet = obs.LatSnapshotSet

// FlightRecord is one entry of a deque's flight recorder: a watchdog
// escalation or the recovery that ended an escalated failure streak, with
// the op's identity, streak length, and the transition mask accumulated
// over the streak.
type FlightRecord = obs.FlightRecord

// FlightKind discriminates FlightRecord entries; see the obs package's
// FlightEscalate and FlightRecover.
type FlightKind = obs.FlightKind

// LatencySnapshot returns the exact merged latency histograms of this
// deque's handles (Metrics().Latency is the digest form).
func (d *Deque[T]) LatencySnapshot() *LatSnapshotSet { return d.core.LatencySnapshot() }

// LatencySnapshot mirrors Deque[T].LatencySnapshot.
func (d *Uint32) LatencySnapshot() *LatSnapshotSet { return d.core.LatencySnapshot() }

// FlightRecords returns the flight recorder's retained distress records,
// oldest first. The recorder is always on and sized DefaultFlightBuf
// records; an idle, uncontended deque simply never writes any.
func (d *Deque[T]) FlightRecords() []FlightRecord { return d.core.Flight().Records() }

// FlightRecords mirrors Deque[T].FlightRecords.
func (d *Uint32) FlightRecords() []FlightRecord { return d.core.Flight().Records() }

// FlightTotal returns how many flight records this deque has ever
// written, including ones the ring has overwritten.
func (d *Deque[T]) FlightTotal() uint64 { return d.core.Flight().Total() }

// FlightTotal mirrors Deque[T].FlightTotal.
func (d *Uint32) FlightTotal() uint64 { return d.core.Flight().Total() }

// SetFlightDump arms automatic flight-recorder dumps: whenever a
// watchdog escalation is recorded and at least
// minInterval has passed since the last dump, the ring's contents are
// written to w in one human-readable block. minInterval 0 means the
// default (1s); w nil disarms. The writer is invoked outside the
// recorder's lock but from the operation's goroutine — give it a writer
// that won't block (stderr, a buffered logger).
func (d *Deque[T]) SetFlightDump(w io.Writer, minInterval time.Duration) {
	d.core.Flight().SetDump(w, minInterval)
}

// SetFlightDump mirrors Deque[T].SetFlightDump.
func (d *Uint32) SetFlightDump(w io.Writer, minInterval time.Duration) {
	d.core.Flight().SetDump(w, minInterval)
}

// WriteFlightRecords writes the deque's retained flight records to w in
// the same human-readable block format automatic dumps use.
func (d *Deque[T]) WriteFlightRecords(w io.Writer) error { return d.core.Flight().DumpTo(w) }

// WriteFlightRecords mirrors Deque[T].WriteFlightRecords.
func (d *Uint32) WriteFlightRecords(w io.Writer) error { return d.core.Flight().DumpTo(w) }

// WriteLatMetricsProm writes the latency snapshot set in Prometheus text
// exposition format: one native histogram per operation class (coarsened
// to the major buckets), plus quantile gauges computed at full
// resolution. Every series is prefixed with prefix (e.g. "deque").
func WriteLatMetricsProm(w io.Writer, prefix string, set *LatSnapshotSet) error {
	return obs.WriteLatProm(w, prefix, set)
}

// RelaxMetrics is the observed-relaxation snapshot of a Relaxed
// front-end: max, sum, and histogram of the rank error its pops actually
// exhibited, plus the configuration gauges (shards, sample width,
// configured bound, enforcement window). See Relaxed.RelaxMetrics.
type RelaxMetrics = obs.RelaxMetrics

// WriteRelaxMetricsProm writes m in Prometheus text exposition format
// (counters, a cumulative rank-error histogram, and gauges), every
// series prefixed with prefix. cmd/dequed appends this to its /metrics
// endpoint when serving in -relaxed mode.
func WriteRelaxMetricsProm(w io.Writer, prefix string, m RelaxMetrics) error {
	return obs.WriteRelaxProm(w, prefix, m)
}

// DepqMetrics is the observed-inversion snapshot of a DEPQ front-end:
// max, sum, and histogram of the priority inversion (band distance) its
// pops actually exhibited, plus the configuration gauges (bands,
// effective bound, d-choice width). See DEPQ.DepqMetrics.
type DepqMetrics = obs.DepqMetrics

// WriteDepqMetricsProm writes m in Prometheus text exposition format
// (counters, a cumulative inversion histogram, and gauges), every series
// prefixed with prefix. cmd/schedd serves this from its /metrics
// endpoint.
func WriteDepqMetricsProm(w io.Writer, prefix string, m DepqMetrics) error {
	return obs.WriteDepqProm(w, prefix, m)
}
