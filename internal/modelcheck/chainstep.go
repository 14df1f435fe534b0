package modelcheck

import (
	"fmt"

	"repro/internal/word"
)

// dir captures one side's orientation so the chain step machines are
// written once, as internal/core/left.go writes the transitions once for
// both sides; dirLeft and dirRight match its two sideCoords.
type dir struct {
	outDelta  int    // out = idx + outDelta
	lo, hi    int    // demonic oracle index range
	boundary  int    // idx of the outermost data slot
	outermost int    // idx of the border slot on this side
	farIdx    int    // neighbor's innermost data slot
	backIdx   int    // neighbor's slot that must point back
	null      uint32 // this side's null (LN for left)
	ownSeal   uint32 // seal this side writes (LS for left)
	oppNull   uint32 // other side's null
	oppSeal   uint32 // other side's seal
}

var dirLeft = dir{
	outDelta: -1, lo: 1, hi: chainSz - 1,
	boundary: 1, outermost: chainSz - 1,
	farIdx: chainSz - 2, backIdx: chainSz - 1,
	null: word.LN, ownSeal: word.LS, oppNull: word.RN, oppSeal: word.RS,
}

var dirRight = dir{
	outDelta: +1, lo: 0, hi: chainSz - 2,
	boundary: chainSz - 2, outermost: 0,
	farIdx: 1, backIdx: 0,
	null: word.RN, ownSeal: word.RS, oppNull: word.LN, oppSeal: word.LS,
}

func dirOf(k OpKind) (dir, bool /*isPush*/) {
	switch k {
	case PushLeft:
		return dirLeft, true
	case PopLeft:
		return dirLeft, false
	case PushRight:
		return dirRight, true
	default:
		return dirRight, false
	}
}

// chainStep executes thread ti's next atomic step.
func chainStep(s chainState, ti int) ([]chainState, error) {
	t := s.threads[ti]
	d, isPush := dirOf(t.kind)
	if isPush {
		return chainPushStep(s, ti, t, d)
	}
	return chainPopStep(s, ti, t, d)
}

func chainAbort(s chainState, ti int) chainState {
	ns := s.clone()
	th := &ns.threads[ti]
	th.res.Done = false
	th.finishOp()
	return ns
}

func chainAdvance(s chainState, ti int, f func(t *chainThread)) chainState {
	ns := s.clone()
	f(&ns.threads[ti])
	return ns
}

// chooseAll enumerates the demonic oracle's (node, idx) answers.
func chooseAll(s chainState, ti int, d dir) []chainState {
	var out []chainState
	for nd := 0; nd < 2; nd++ {
		for idx := d.lo; idx <= d.hi; idx++ {
			nd, idx := nd, idx
			out = append(out, chainAdvance(s, ti, func(t *chainThread) {
				t.nd, t.idx = nd, idx
				t.pc = cpcLoadIn
			}))
		}
	}
	return out
}

// validate applies the edge check from left.go (mirrored by d): reject the
// same-side seal and nulls, let the opposite seal through.
func validate(d dir, idx int, inV, outV uint32) bool {
	if inV == d.null || inV == d.ownSeal {
		return false
	}
	if idx != d.boundary && outV != d.null {
		return false
	}
	if idx == d.outermost && inV != d.oppNull {
		return false
	}
	return true
}

func chainPushStep(s chainState, ti int, t chainThread, d dir) ([]chainState, error) {
	switch t.pc {
	case cpcChoose:
		return chooseAll(s, ti, d), nil

	case cpcLoadIn:
		in := s.slots[t.nd][t.idx]
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.in = in
			t.pc = cpcLoadOut
		})}, nil

	case cpcLoadOut:
		out := s.slots[t.nd][t.idx+d.outDelta]
		inV, outV := word.Val(t.in), word.Val(out)
		if !validate(d, t.idx, inV, outV) {
			return []chainState{chainAbort(s, ti)}, nil
		}
		if t.idx != d.boundary {
			// Interior push.
			return []chainState{chainAdvance(s, ti, func(t *chainThread) {
				t.out = out
				t.straddle = false
				t.pc = cpcCAS1
			})}, nil
		}
		if outV == d.null {
			// Boundary: would append (L6) — not modeled; retry.
			return []chainState{chainAbort(s, ti)}, nil
		}
		nbr := int(outV)
		if nbr != 0 && nbr != 1 {
			return nil, fmt.Errorf("modelcheck: bad link value %d", outV)
		}
		if s.removed[nbr] {
			return []chainState{chainAbort(s, ti)}, nil // resolve failed
		}
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.out = out
			t.nbr = nbr
			t.straddle = true
			t.pc = cpcLoadFar
		})}, nil

	case cpcLoadFar:
		far := s.slots[t.nbr][d.farIdx]
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.far = far
			t.pc = cpcLoadBack
		})}, nil

	case cpcLoadBack:
		back := word.Val(s.slots[t.nbr][d.backIdx])
		if back != uint32(t.nd) {
			return []chainState{chainAbort(s, ti)}, nil
		}
		switch word.Val(t.far) {
		case d.null:
			// Straddle push: CAS1 on in, CAS2 on far.
			return []chainState{chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcCAS1 })}, nil
		case d.ownSeal:
			// Remove the sealed neighbor, then retry the whole push.
			return []chainState{chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcRemoveCAS1 })}, nil
		default:
			return []chainState{chainAbort(s, ti)}, nil
		}

	case cpcRemoveCAS1:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcRemoveCAS2 })
		ns.slots[t.nd][t.idx] = word.Bump(t.in)
		return []chainState{ns}, nil

	case cpcRemoveCAS2:
		if s.slots[t.nd][t.idx+d.outDelta] != t.out {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAbort(s, ti) // push retries after a remove (RETRY outcome)
		ns.slots[t.nd][t.idx+d.outDelta] = word.With(t.out, d.null)
		ns.removed[t.nbr] = true
		return []chainState{ns}, nil

	case cpcCAS1:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcCAS2 })
		ns.slots[t.nd][t.idx] = word.Bump(t.in)
		return []chainState{ns}, nil

	case cpcCAS2:
		if t.straddle {
			if s.slots[t.nbr][d.farIdx] != t.far {
				return []chainState{chainAbort(s, ti)}, nil
			}
			ns := chainAdvance(s, ti, func(t *chainThread) {
				t.res.Done = true
				t.finishOp()
			})
			ns.slots[t.nbr][d.farIdx] = word.With(t.far, t.arg)
			return []chainState{ns}, nil
		}
		if s.slots[t.nd][t.idx+d.outDelta] != t.out {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) {
			t.res.Done = true
			t.finishOp()
		})
		ns.slots[t.nd][t.idx+d.outDelta] = word.With(t.out, t.arg)
		return []chainState{ns}, nil
	}
	return nil, fmt.Errorf("modelcheck: chain push bad pc %d", t.pc)
}

func chainPopStep(s chainState, ti int, t chainThread, d dir) ([]chainState, error) {
	switch t.pc {
	case cpcChoose:
		return chooseAll(s, ti, d), nil

	case cpcLoadIn:
		in := s.slots[t.nd][t.idx]
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.in = in
			t.pc = cpcLoadOut
		})}, nil

	case cpcLoadOut:
		out := s.slots[t.nd][t.idx+d.outDelta]
		inV, outV := word.Val(t.in), word.Val(out)
		if !validate(d, t.idx, inV, outV) {
			return []chainState{chainAbort(s, ti)}, nil
		}
		if t.idx != d.boundary {
			// Interior: empty check or pop.
			next := uint8(cpcCAS1)
			if inV == d.oppNull {
				next = cpcEmptyReread
			}
			return []chainState{chainAdvance(s, ti, func(t *chainThread) {
				t.out = out
				t.straddle = false
				t.pc = next
			})}, nil
		}
		if outV != d.null {
			// Straddling pop progression.
			nbr := int(outV)
			if nbr != 0 && nbr != 1 {
				return nil, fmt.Errorf("modelcheck: bad link value %d", outV)
			}
			if s.removed[nbr] {
				return []chainState{chainAbort(s, ti)}, nil
			}
			return []chainState{chainAdvance(s, ti, func(t *chainThread) {
				t.out = out
				t.nbr = nbr
				t.straddle = true
				t.pc = cpcLoadFar
			})}, nil
		}
		// Boundary.
		next := uint8(cpcCAS1)
		if inV == d.oppNull || inV == d.oppSeal {
			next = cpcEmptyReread
		} else if word.IsReserved(inV) {
			return []chainState{chainAbort(s, ti)}, nil
		}
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.out = out
			t.straddle = false
			t.pc = next
		})}, nil

	case cpcEmptyReread:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.res.Done = true
			t.res.Empty = true
			t.finishOp()
		})}, nil

	case cpcLoadFar:
		far := s.slots[t.nbr][d.farIdx]
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.far = far
			t.pc = cpcLoadBack
		})}, nil

	case cpcLoadBack:
		back := word.Val(s.slots[t.nbr][d.backIdx])
		if back != uint32(t.nd) {
			return []chainState{chainAbort(s, ti)}, nil
		}
		inV := word.Val(t.in)
		switch word.Val(t.far) {
		case d.null:
			if inV == d.oppNull || inV == d.oppSeal {
				return []chainState{chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcE2Reread })}, nil
			}
			return []chainState{chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcSealCAS1 })}, nil
		case d.ownSeal:
			if inV == d.oppNull || inV == d.oppSeal {
				return []chainState{chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcE2Reread })}, nil
			}
			return []chainState{chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcRemoveCAS1 })}, nil
		default:
			return []chainState{chainAbort(s, ti)}, nil
		}

	case cpcE2Reread:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		return []chainState{chainAdvance(s, ti, func(t *chainThread) {
			t.res.Done = true
			t.res.Empty = true
			t.finishOp()
		})}, nil

	case cpcSealCAS1:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) {
			t.in = word.Bump(t.in) // progression continues with bumped copy
			t.pc = cpcSealCAS2
		})
		ns.slots[t.nd][t.idx] = word.Bump(t.in)
		return []chainState{ns}, nil

	case cpcSealCAS2:
		if s.slots[t.nbr][d.farIdx] != t.far {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) {
			t.far = word.With(t.far, d.ownSeal)
			t.pc = cpcRemoveCAS1
		})
		ns.slots[t.nbr][d.farIdx] = word.With(t.far, d.ownSeal)
		return []chainState{ns}, nil

	case cpcRemoveCAS1:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) {
			t.in = word.Bump(t.in)
			t.pc = cpcRemoveCAS2
		})
		ns.slots[t.nd][t.idx] = word.Bump(t.in)
		return []chainState{ns}, nil

	case cpcRemoveCAS2:
		if s.slots[t.nd][t.idx+d.outDelta] != t.out {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) {
			t.out = word.With(t.out, d.null)
			t.straddle = false
			t.pc = cpcCAS1 // proceed to the boundary pop
		})
		ns.slots[t.nd][t.idx+d.outDelta] = word.With(t.out, d.null)
		ns.removed[t.nbr] = true
		return []chainState{ns}, nil

	case cpcCAS1:
		// Pop order: bump out first.
		if s.slots[t.nd][t.idx+d.outDelta] != t.out {
			return []chainState{chainAbort(s, ti)}, nil
		}
		ns := chainAdvance(s, ti, func(t *chainThread) { t.pc = cpcCAS2 })
		ns.slots[t.nd][t.idx+d.outDelta] = word.Bump(t.out)
		return []chainState{ns}, nil

	case cpcCAS2:
		if s.slots[t.nd][t.idx] != t.in {
			return []chainState{chainAbort(s, ti)}, nil
		}
		val := word.Val(t.in)
		ns := chainAdvance(s, ti, func(t *chainThread) {
			t.res.Done = true
			t.res.Val = val
			t.finishOp()
		})
		ns.slots[t.nd][t.idx] = word.With(t.in, d.null)
		return []chainState{ns}, nil
	}
	return nil, fmt.Errorf("modelcheck: chain pop bad pc %d", t.pc)
}
