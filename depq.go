package deque

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
)

// DEPQ is a double-ended priority queue over a Pool: K priority bands,
// band 0 the most urgent and band K-1 the most shed-able, each band one
// pool shard. It is the structure the underlying deque is uniquely
// shaped for, because the two ends of every band are distinct semantic
// channels:
//
//   - Push(v, prio) routes v to its band and pushes at the band's left
//     end.
//   - PopMin serves the urgent side: it pops from the *right* end of the
//     lowest resident band — FIFO within a band, priority order across
//     bands — the channel a worker takes its next job from.
//   - PopMax serves the shed-able side: it pops from the *left* end of
//     the highest resident band — the newest value of the least urgent
//     class, which is exactly what a load-shedder should drop first
//     (oldest urgent work keeps its FIFO position; the marginal newest
//     shed-able job absorbs the overload).
//
// A strict DEPQ would serialize every pop on one band; DEPQ instead
// relaxes priority order by a bounded, measured amount, transferring the
// d-choice machinery of Relaxed[T] to band selection:
//
//   - WithBandBound(b) caps the worst-case priority inversion: a PopMin
//     may return a value at most b bands above the lowest band that
//     still held work (PopMax mirrors toward high bands). b = 0 is a
//     strict priority queue; the default K-1 is unbounded (priority is
//     best-effort). The bound is enforced by the reservation scan in
//     shard.Stamps.ReserveBandPop: a pop whose band distance would
//     exceed b is undone and re-targeted, so the estimate recorded for
//     every successful pop is <= b by construction.
//   - Two-choice selection spreads contention inside the allowed window:
//     a pop samples WithBandChoice(d) bands (default 2) between the
//     nearest resident band and the bound's edge and takes the most
//     loaded, so concurrent consumers do not all hammer one band's CAS.
//   - DepqMetrics() reports the inversion actually observed (max, mean,
//     histogram) via one obs.DistRegistry per end — the configured bound
//     says what may happen, the metric says what did.
//
// What survives from the pool contract: conservation (every pushed value
// pops exactly once, across any mix of ends), per-band linearizability
// and FIFO order, and emptiness certification (ok=false only after every
// band came up empty at the moment it was tried). What is deliberately
// weakened: cross-band priority order, by at most the configured bound.
type DEPQ[T any] struct {
	pool   *Pool[T]
	k      int   // priority bands == pool shards
	bound  int64 // enforced inversion bound; < 0 disables (unbounded)
	choice int   // d-choice width inside the band window
	stamps *shard.Stamps
	mins   obs.DistRegistry // PopMin inversion estimates
	maxes  obs.DistRegistry // PopMax inversion estimates
	seed   atomic.Uint64    // staggers per-handle sampler streams
}

// depqOptions collects DEPQ construction parameters.
type depqOptions struct {
	bands    int
	bound    int
	boundSet bool
	choice   int
	poolOpts []PoolOption
}

// DEPQOption configures NewDEPQ.
type DEPQOption func(*depqOptions)

// WithBands sets the priority-band count K (default 8). Each band is one
// pool shard; Push priorities clamp into [0, K).
func WithBands(k int) DEPQOption {
	return func(o *depqOptions) { o.bands = k }
}

// WithBandBound caps the worst-case priority inversion at b bands: no
// PopMin returns a value more than b bands above the lowest band still
// holding work, and no PopMax reaches more than b bands below the
// highest. b = 0 is strict priority order; the default (K-1) never
// constrains a pop. Must be in [0, K-1].
func WithBandBound(b int) DEPQOption {
	return func(o *depqOptions) { o.bound, o.boundSet = b, true }
}

// WithBandChoice sets the d-choice sample width: how many bands inside
// the allowed inversion window a pop samples by load estimate before
// taking the most loaded. Default 2; 1 disables the spread (always the
// nearest resident band). Must be at least 1.
func WithBandChoice(d int) DEPQOption {
	return func(o *depqOptions) { o.choice = d }
}

// WithDEPQPool forwards pool options (WithShardOptions for capacity,
// reclamation, memory limit, ...) to the underlying Pool. Routing options are
// accepted but unused — band selection replaces routing — and stealing
// is always forced off: a steal moving values across bands would
// silently reorder priorities behind the bound's back.
func WithDEPQPool(opts ...PoolOption) DEPQOption {
	return func(o *depqOptions) { o.poolOpts = append(o.poolOpts, opts...) }
}

// NewDEPQ returns a double-ended priority queue over a fresh pool with
// one shard per band. It panics on invalid configuration; use
// NewDEPQChecked to receive the error.
func NewDEPQ[T any](opts ...DEPQOption) *DEPQ[T] {
	q, err := NewDEPQChecked[T](opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// NewDEPQChecked is NewDEPQ returning invalid configuration as an error
// wrapping ErrBadOption instead of panicking.
func NewDEPQChecked[T any](opts ...DEPQOption) (*DEPQ[T], error) {
	o := depqOptions{bands: 8, choice: 2}
	for _, f := range opts {
		f(&o)
	}
	if o.bands <= 0 {
		return nil, fmt.Errorf("%w: WithBands(%d) needs at least one band", ErrBadOption, o.bands)
	}
	if o.boundSet && (o.bound < 0 || o.bound > o.bands-1) {
		return nil, fmt.Errorf("%w: WithBandBound(%d) must be between 0 and bands-1 (%d)",
			ErrBadOption, o.bound, o.bands-1)
	}
	if o.choice < 1 {
		return nil, fmt.Errorf("%w: WithBandChoice(%d) must be at least 1", ErrBadOption, o.choice)
	}
	// Stealing off unconditionally: band residency accounting only sees
	// DEPQ operations, and a pool-level steal would drain a band's far
	// end without a reservation, breaking both the bound and the
	// conservation of the stamps (see WithDEPQPool).
	pool, err := NewPoolChecked[T](o.bands, append(o.poolOpts, WithStealing(false))...)
	if err != nil {
		return nil, err
	}
	q := &DEPQ[T]{
		pool:   pool,
		k:      o.bands,
		bound:  -1, // unbounded: a pop may cross all K-1 band distances
		choice: o.choice,
		stamps: shard.NewStamps(o.bands),
	}
	if o.boundSet {
		q.bound = int64(o.bound)
	}
	return q, nil
}

// Bands returns the priority-band count.
func (q *DEPQ[T]) Bands() int { return q.k }

// BandBound returns the effective inversion bound in bands: the
// configured WithBandBound, or Bands()-1 when unbounded (no pop can skip
// more bands than exist).
func (q *DEPQ[T]) BandBound() int {
	if q.bound < 0 {
		return q.k - 1
	}
	return int(q.bound)
}

// Bounded reports whether WithBandBound enforcement is active.
func (q *DEPQ[T]) Bounded() bool { return q.bound >= 0 }

// Choice returns the d-choice sample width inside the band window.
func (q *DEPQ[T]) Choice() int { return q.choice }

// Pool returns the underlying pool, for metrics and escape-hatch access.
// Values moved directly through pool or shard handles bypass the band
// stamps; the bound then holds relative to DEPQ traffic only.
func (q *DEPQ[T]) Pool() *Pool[T] { return q.pool }

// Len returns the pool's O(bands) resident estimate; LenExact walks.
func (q *DEPQ[T]) Len() int { return q.pool.Len() }

// LenExact returns the exact resident count (exact only in quiescence).
func (q *DEPQ[T]) LenExact() int { return q.pool.LenExact() }

// BandLen returns band b's stamp-derived resident estimate (transiently
// off by in-flight reservations; exact in quiescence).
func (q *DEPQ[T]) BandLen(b int) int {
	if n := q.stamps.Resident(b); n > 0 {
		return int(n)
	}
	return 0
}

// Metrics returns the pool-merged deque observability snapshot.
func (q *DEPQ[T]) Metrics() Metrics { return q.pool.Metrics() }

// LatencySnapshot returns the underlying pool's exact merged latency
// histograms (DEPQ operations land in the bands' per-op classes).
func (q *DEPQ[T]) LatencySnapshot() *LatSnapshotSet { return q.pool.LatencySnapshot() }

// FlightRecords returns the merged band flight records, oldest first.
func (q *DEPQ[T]) FlightRecords() []FlightRecord { return q.pool.FlightRecords() }

// FlightTotal returns the total flight records ever written across all
// bands, including ones the rings have overwritten.
func (q *DEPQ[T]) FlightTotal() uint64 { return q.pool.FlightTotal() }

// SetFlightDump arms automatic flight-recorder dumps on every band; see
// Deque.SetFlightDump for the contract.
func (q *DEPQ[T]) SetFlightDump(w io.Writer, minInterval time.Duration) {
	q.pool.SetFlightDump(w, minInterval)
}

// DepqMetrics returns the observed-inversion snapshot — the measured
// answer to "how far past resident priority did this structure actually
// reach": max, sum, and histogram of the per-pop band-distance
// estimates, plus the configuration gauges. All zero under the obsoff
// build tag (the estimate is skipped, the structure still enforces the
// bound).
func (q *DEPQ[T]) DepqMetrics() DepqMetrics {
	var m DepqMetrics
	q.mins.MergeInto(&m.PopMins, &m.InvSum, &m.InvMax, m.InvHist[:])
	q.maxes.MergeInto(&m.PopMaxes, &m.InvSum, &m.InvMax, m.InvHist[:])
	m.Bands = uint64(q.k)
	m.BandBound = uint64(q.BandBound())
	m.Choice = uint64(q.choice)
	return m
}

// Register returns a DEPQHandle for the calling goroutine. Handles are
// cheap and long-lived; reuse them (registration is permanent, as for
// Pool and Deque handles).
func (q *DEPQ[T]) Register() *DEPQHandle[T] {
	return &DEPQHandle[T]{
		q:      q,
		ph:     q.pool.Register(),
		minRec: q.mins.NewRec(),
		maxRec: q.maxes.NewRec(),
		smp:    shard.NewSampler(q.seed.Add(1)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d),
	}
}

// DEPQHandle is a per-goroutine accessor to a DEPQ. Not safe for
// concurrent use.
type DEPQHandle[T any] struct {
	q      *DEPQ[T]
	ph     *PoolHandle[T]
	minRec *obs.DistRec
	maxRec *obs.DistRec
	smp    shard.Sampler
	picks  []int // d-choice scratch
}

// clampBand maps a caller priority into [0, bands).
func (h *DEPQHandle[T]) clampBand(prio int) int {
	if prio < 0 {
		return 0
	}
	if prio >= h.q.k {
		return h.q.k - 1
	}
	return prio
}

// Push adds v under priority prio (clamped into [0, Bands)), at the left
// end of its band; ErrFull when that band's capacity is exhausted
// (nothing pushed — the load-shedding signal a scheduler admits against).
func (h *DEPQHandle[T]) Push(v T, prio int) error {
	return h.push(nil, v, prio)
}

// PushCtx is Push, aborting with ctx.Err() once ctx is cancelled; a
// non-nil error means nothing was pushed.
func (h *DEPQHandle[T]) PushCtx(ctx context.Context, v T, prio int) error {
	return h.push(ctx, v, prio)
}

func (h *DEPQHandle[T]) push(ctx context.Context, v T, prio int) error {
	b := h.clampBand(prio)
	// Reserve before the push so the band looks resident to concurrent
	// pop reservations from the moment the push is committed to —
	// conservative for the bound (see internal/shard/band.go).
	h.q.stamps.AddPush(b, 1)
	if err := h.ph.hs[b].push(ctx, v, true, 0); err != nil {
		h.q.stamps.UndoPush(b)
		return err
	}
	h.ph.note(b, 1)
	return nil
}

// PopMin pops the most urgent value: the oldest (right-end) value of the
// lowest resident band, relaxed upward by at most BandBound bands. prio
// is the band the value came from; ok is false only after every band
// came up empty.
func (h *DEPQHandle[T]) PopMin() (v T, prio int, ok bool) {
	v, prio, ok, _ = h.pop(nil, true)
	return v, prio, ok
}

// PopMax pops the most shed-able value: the newest (left-end) value of
// the highest resident band, relaxed downward by at most BandBound
// bands — the drop channel under overload.
func (h *DEPQHandle[T]) PopMax() (v T, prio int, ok bool) {
	v, prio, ok, _ = h.pop(nil, false)
	return v, prio, ok
}

// PopMinCtx is PopMin, aborting with ctx.Err() once ctx is cancelled
// (consulted per band pop and between sweeps).
func (h *DEPQHandle[T]) PopMinCtx(ctx context.Context) (v T, prio int, ok bool, err error) {
	return h.pop(ctx, true)
}

// PopMaxCtx mirrors PopMinCtx for the shed end.
func (h *DEPQHandle[T]) PopMaxCtx(ctx context.Context) (v T, prio int, ok bool, err error) {
	return h.pop(ctx, false)
}

// edgeBand maps the i-th band from the popping end to its band index:
// PopMin (low) counts up from band 0, PopMax down from band K-1. The map
// is its own inverse, so it also gives a band's distance from that end.
func (q *DEPQ[T]) edgeBand(i int, low bool) int {
	if low {
		return i
	}
	return q.k - 1 - i
}

// pop drives PopMin (low=true) and PopMax under certify: a d-choice probe
// inside the allowed band window, then a sweep from the requested end in
// strict priority order. Each leg reserves a pop stamp (enforcing the
// inversion bound for that end), attempts the band's deque pop, and
// either records the inversion estimate or undoes the stamp. A bound
// rejection blocks the leg: work nearer the requested end looks
// resident, so the value must come from nearer, and "empty" cannot be
// certified past it.
func (h *DEPQHandle[T]) pop(ctx context.Context, low bool) (v T, prio int, ok bool, err error) {
	q, st := h.q, h.q.stamps
	rec := h.maxRec
	if low {
		rec = h.minRec
	}
	prio = -1
	cerr := h.ph.certify(ctx, q.k, func() int { return h.chooseBand(low) },
		func(i int) int { return q.edgeBand(i, low) },
		func(b int) legResult {
			inv, reserved := st.ReserveBandPop(b, q.bound, low)
			if !reserved {
				return legBlocked
			}
			// PopMin drains the right end (oldest first: FIFO service);
			// PopMax drains the left end (newest first: cheapest to shed).
			if v, ok, err = h.ph.hs[b].pop(ctx, !low, 0); !ok {
				st.UndoPop(b)
				if err != nil {
					return legDone
				}
				return legEmpty
			}
			h.ph.note(b, -1)
			if obs.Enabled {
				rec.Record(uint64(inv))
			}
			prio = b
			return legDone
		})
	if cerr != nil {
		return v, -1, false, cerr
	}
	return v, prio, ok, err
}

// chooseBand picks the d-choice probe target for one pop: the most
// loaded of `choice` bands sampled inside the window the bound allows,
// anchored at the resident band nearest the popping end. Any band in the
// window satisfies the bound, so the spread is free. Returns -1 when
// nothing looks resident (the sweep then decides emptiness).
func (h *DEPQHandle[T]) chooseBand(low bool) int {
	q := h.q
	anchor := q.stamps.EdgeResident(low)
	if anchor < 0 {
		return -1
	}
	r := q.edgeBand(anchor, low)
	width := q.k - r // bands from the anchor to the far end
	if q.bound >= 0 {
		width = min(width, int(q.bound)+1)
	}
	if width <= 1 || q.choice <= 1 {
		return anchor
	}
	h.picks = h.smp.PickIn(width, q.choice, h.picks)
	best := -1
	for _, off := range h.picks {
		b := q.edgeBand(r+off, low)
		if q.stamps.Resident(b) <= 0 {
			continue // sample landed on an empty band
		}
		if best < 0 || h.ph.load(b) > h.ph.load(best) {
			best = b
		}
	}
	if best < 0 {
		return anchor
	}
	return best
}

// Flush returns every band handle's cached slab capacity and drains
// deferred reclamation work; call it before parking the handle.
func (h *DEPQHandle[T]) Flush() { h.ph.Flush() }
