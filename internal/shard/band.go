package shard

// This file is the band reservation of the double-ended priority queue
// front-end (the public deque.DEPQ[T]), which runs on the same Stamps
// table as the relaxed front-end: one shard per priority band, the same
// reserve/undo discipline and the same epistemology (the configured
// bound says what the estimator may admit; the obs registry says what it
// did).
//
// # The inversion argument, in one paragraph
//
// A DEPQ maps priorities onto k bands, band 0 most urgent, band k-1 most
// shed-able; each band is one deque shard. A PopMin's priority inversion
// is the band distance between the band it popped and the lowest band
// that still held work — the number of priority classes it skipped over.
// Enforcement and estimate come from one atomic-load scan inside the pop
// reservation: the pop stamp is claimed first (so the scan never counts
// the value being taken), then the lowest band that still looks resident
// (pushes minus pops) is found; if it is more than `bound` bands below
// the target the reservation is undone and the caller must re-target. A
// reservation that succeeds therefore carries an estimate <= bound by
// construction, and the chaos suites gate exactly that invariant end to
// end — an unbalanced undo path or a bypassed reservation would surface
// as an estimate above the bound. PopMax mirrors the scan from the high
// end. Push stamps are reserved (AddPush) before the push and undone on
// failure (ErrFull), so an in-flight push makes its band look resident a
// moment early — conservative for the bound (pops near it block
// transiently rather than under-report).

// ReserveBandPop claims a pop stamp on band b and enforces the inversion
// bound toward one end: with the claim already holding b's own value out
// of the scan, the resident band nearest that end (the lowest for a
// PopMin, low set; the highest for a PopMax) must be no more than bound
// bands past b. ok=false means the claim was undone and the caller must
// re-target (EdgeResident names a band that qualifies). On success inv
// is the inversion estimate recorded for this pop: the band distance to
// that edge band, 0 when nothing nearer the end was waiting. bound < 0
// disables enforcement (the estimate is still returned).
func (s *Stamps) ReserveBandPop(b int, bound int64, low bool) (inv int64, ok bool) {
	s.pop[b].n.Add(1)
	if e := s.EdgeResident(low); e >= 0 {
		inv = int64(e - b)
		if low {
			inv = -inv
		}
		inv = max(inv, 0) // the edge lies beyond b: nothing was skipped
	}
	if bound >= 0 && inv > bound {
		s.pop[b].n.Add(-1)
		return 0, false
	}
	return inv, true
}
