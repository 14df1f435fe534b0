package core

import (
	"context"

	"repro/internal/chaos"
	"repro/internal/help"
	"repro/internal/obs"
)

// This file wires the announcement/helping layer (internal/help) into the
// operation loops. The deque itself is obstruction-free: a handle can lose
// its transition CASes forever under an adversarial schedule, and the
// livelock watchdog only slows the loser down. With Config.Helping, a
// handle whose failure streak reaches announceStreak (twice the watchdog
// threshold) publishes its op into the per-deque announcement array; every
// other handle polls the array — at a throttled cadence on its own op path
// (maybeHelp) and on each of its own watchdog trips (noteFailure) — and
// completes announced ops through the ordinary transitions.
//
// Exactly-once hinges on the slot state machine (see package help): the op
// is applied to the deque only by the current claim holder, and at most
// one party — the announcer's self-claim or one helper — holds the claim
// at a time. A completed op's result travels back through the slot's
// result word; cancellation of an announced *Ctx op withdraws the slot by
// CAS and can therefore only succeed while nobody holds the claim, i.e.
// while the op provably has not taken effect.
//
// The resulting progress guarantee: once an op is announced, it completes
// as soon as ANY handle accumulates one claim's worth of successful
// transition attempts — the announcer's own schedule no longer matters.
// Under the chaos framework's parked-goroutine adversary (the announcer
// suspended indefinitely mid-wait) an announced op still completes within
// one poll interval plus one attempt budget of any active handle, which is
// the bound internal/chaostest's starvation schedule asserts.
//
// Reclamation (I0–I4 of reclaim.go) needs no new invariants: the executing
// party runs the transitions on its OWN handle — its own hazard slots, its
// own epoch pin, its own spare nodes — so every guard discipline holds
// exactly as it does for a native op. The announcer unpins while it waits,
// so a parked announcer never blocks the epoch advance its helper may need
// to allocate nodes.

// helpPollInterval is how many operations a handle starts between
// announcement-array polls. The poll itself is one atomic load of the
// pending count; a full scan runs only when something is announced.
const helpPollInterval = 16

// maybeHelp is the throttled op-path poll. Callers gate on d.helpA != nil,
// which keeps the disabled hot path at one nil check.
func (d *Deque) maybeHelp(h *Handle) {
	h.helpTick++
	if h.helpTick < helpPollInterval {
		return
	}
	h.helpTick = 0
	d.helpScan(h)
}

// shouldAnnounce reports whether the handle's failure streak warrants
// publishing its op. Streaks accumulated while executing someone else's
// announced op never re-announce (inHelp), and Try* ops never announce at
// all (their contract is to give up, not to escalate) — callers gate that.
func (d *Deque) shouldAnnounce(h *Handle) bool {
	return d.helpA != nil && !h.inHelp && h.consecFails >= d.announceStreak
}

// helpScan looks for one announced op and completes it. At most one op is
// helped per scan: helping is a bounded donation from the scanning
// handle's schedule, not a commitment to drain the array.
func (d *Deque) helpScan(h *Handle) {
	if h.inHelp || d.helpA.Pending() == 0 {
		return
	}
	// A forced failure here models the helper being preempted before it
	// finds the announcement.
	if chaos.Visit(chaos.Help) {
		return
	}
	h.inHelp = true
	defer func() { h.inHelp = false }()
	lim := int(d.nextTID.Load())
	if n := d.helpA.Len(); lim > n {
		lim = n
	}
	// Start just past our own slot so concurrent helpers spread across
	// multiple announcements instead of convoying on the lowest tid.
	for k := 1; k < lim; k++ {
		i := (h.tid + k) % lim
		seq, ok := d.helpA.Peek(i)
		if !ok {
			continue
		}
		// A forced failure here models losing the claim race.
		if chaos.Visit(chaos.Claim) {
			continue
		}
		if !d.helpA.TryClaim(i, seq) {
			h.rec.Inc(obs.CtrHelpClaimLost)
			continue
		}
		if r, done := d.execAnnounced(h, d.helpA.Op(i)); done {
			d.helpA.Complete(i, seq, r)
			h.rec.Inc(obs.CtrHelpGiven)
		} else {
			d.helpA.HandBack(i, seq)
			h.rec.Inc(obs.CtrHelpHandback)
		}
		return
	}
}

// execAnnounced runs a claimed op through the ordinary oracle+transition
// cycles on the executing handle, for at most the deque's per-claim
// attempt budget. done=false means the budget ran out (the caller hands
// the claim back); done=true carries the op's outcome — including a pop's
// EMPTY and a push's ErrFull, which are completions, not failures.
func (d *Deque) execAnnounced(h *Handle, op help.Op) (help.Result, bool) {
	_, s := obsOpSide(op)
	for n := 0; n < d.helpAttempts; n++ {
		edge, idx, hintW, cached := d.seededOracle(h, s)
		if op.Kind == help.Push {
			if d.pushTransitions(h, s, op.Operand, edge, idx, hintW) {
				h.noteSuccess()
				return help.Result{}, true
			}
			if err := h.takeAllocErr(); err != nil {
				return help.Result{Full: true}, true
			}
		} else if v, empty, done := d.popTransitions(h, s, edge, idx, hintW); done {
			h.noteSuccess()
			return help.Result{Value: v, Empty: empty}, true
		}
		if cached {
			h.dropEdge(s)
		}
		h.noteFailure()
	}
	return help.Result{}, false
}

// runAnnounced publishes op and drives it to completion: the announcer
// keeps trying to self-claim and execute (preserving obstruction freedom —
// in isolation it completes unaided), while any helper may claim and
// execute it instead. Returns announced=false when a chaos schedule
// suppressed the announcement (the caller's retry loop continues
// unchanged); cancelled=true when ctx expired and the withdrawal CAS
// proved the op never took effect.
func (d *Deque) runAnnounced(ctx context.Context, h *Handle, op help.Op) (res help.Result, cancelled, announced bool) {
	if chaos.Visit(chaos.Announce) {
		return help.Result{}, false, false
	}
	h.inHelp = true
	defer func() { h.inHelp = false }()
	seq := d.helpA.Announce(h.tid, op)
	h.rec.Inc(obs.CtrAnnounce)
	oop, oside := obsOpSide(op)
	d.flightAnnounce(h, oop, oside)
	// Announce→completion time is the helping layer's latency bound made
	// continuously measurable; announces are rare, so record every one.
	lt := d.latNow()
	// The watchdog escalated the backoff to its maximum while the streak
	// built up; announcing changes the progress mode — ANY party's success
	// now completes the op, including our own self-claim — so the wide
	// convoy-avoidance window would only delay whoever gets there first.
	// Start the wait loop gently.
	h.bo.Reset()
	selfDone := false
	for {
		// Never hold an epoch pin while waiting: the helper executing this
		// op may need the global epoch to advance (node allocation under a
		// memory bound), and a pinned waiter would block it domain-wide.
		h.unpin()
		_, ph := d.helpA.State(h.tid)
		switch ph {
		case help.Done:
			res = d.helpA.Consume(h.tid, seq)
			if !selfDone {
				h.rec.Inc(obs.CtrHelpReceived)
			}
			h.noteSuccess()
			d.latEndAt(h, obs.LatHelpWait, lt)
			return res, false, true
		case help.Announced:
			if ctx != nil && ctx.Err() != nil {
				if d.helpA.TryCancel(h.tid, seq) {
					return help.Result{}, true, true
				}
				// Lost the withdrawal race: a helper holds the claim or
				// already completed. Wait for the outcome.
				continue
			}
			// Self-claim and execute. A forced failure at Claim models
			// losing the claim race — and a Park rule here is the
			// starvation-bound adversary: the announcer suspends between
			// announcing and claiming, leaving completion to helpers.
			if chaos.Visit(chaos.Claim) {
				h.bo.Spin()
				continue
			}
			if !d.helpA.TryClaim(h.tid, seq) {
				h.rec.Inc(obs.CtrHelpClaimLost)
				continue
			}
			if r, done := d.execAnnounced(h, op); done {
				d.helpA.Complete(h.tid, seq, r)
				selfDone = true // next iteration consumes Done
				continue
			}
			d.helpA.HandBack(h.tid, seq)
			h.rec.Inc(obs.CtrHelpHandback)
			h.bo.Spin()
		case help.Claimed:
			// Someone is executing the op right now; all we can do — even
			// with an expired ctx — is wait for Done or a hand-back.
			h.bo.Spin()
		default:
			// Empty: unreachable — only the owner resets its slot.
			panic("core: announced slot reset while op in flight")
		}
	}
}

// obsOpSide maps a helping-layer op descriptor onto the observability
// layer's op/side enums for flight-recorder records.
func obsOpSide(op help.Op) (obs.Op, obs.Side) {
	o, s := obs.OpPush, obs.SideLeft
	if op.Kind == help.Pop {
		o = obs.OpPop
	}
	if op.Side == help.Right {
		s = obs.SideRight
	}
	return o, s
}

// announcedPush is runAnnounced shaped for the push loops.
func (d *Deque) announcedPush(ctx context.Context, h *Handle, side help.Side, v uint32) (err error, announced bool) {
	res, cancelled, ok := d.runAnnounced(ctx, h, help.Op{Side: side, Kind: help.Push, Operand: v})
	switch {
	case !ok:
		return nil, false
	case cancelled:
		return ctx.Err(), true
	case res.Full:
		return ErrFull, true
	}
	return nil, true
}

// announcedPop is runAnnounced shaped for the pop loops.
func (d *Deque) announcedPop(ctx context.Context, h *Handle, side help.Side) (v uint32, ok bool, err error, announced bool) {
	res, cancelled, done := d.runAnnounced(ctx, h, help.Op{Side: side, Kind: help.Pop})
	switch {
	case !done:
		return 0, false, nil, false
	case cancelled:
		return 0, false, ctx.Err(), true
	}
	return res.Value, !res.Empty, nil, true
}
