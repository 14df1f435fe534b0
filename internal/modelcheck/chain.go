// chain.go extends the model checker from the single-array HLM protocol to
// the unbounded deque's linking transitions: a fixed two-node chain whose
// operations follow internal/core/left.go's control flow on either side —
// interior pushes/pops (L1/L2), straddling pushes (L3), boundary pops (L4),
// sealing (L5), removal (L7), and the empty checks (E1–E3) — under a
// demonic oracle that may claim the edge is at any (node, index), including
// on a node that has already been removed.
//
// This is where today's subtle design decisions get verified exhaustively:
// the same-side/opposite-side seal validation split, the empty checks
// accepting the opposite seal (which is what prevents two sealed nodes from
// pointing at each other), and the harmlessness of stalled sealers' and
// removers' leftover CASes.
//
// Appending (L6) is the one transition not modeled: it allocates, and a
// fixed-node model cannot. Operations that would need to append abort with
// RETRY instead; the single-array model plus the real-code unit tests cover
// the append protocol (it is an HLM push whose "value" is a link).
package modelcheck

import (
	"fmt"

	"repro/internal/word"
)

// chainSz is the per-node slot count in the chain model: two border link
// slots plus three data slots — the smallest size where interior,
// boundary, and straddling edges are all distinct.
const chainSz = 5

// Node IDs double as link-slot payloads.
const (
	nodeA = 0 // left node
	nodeB = 1 // right node
)

// chainState is the two-node system configuration.
type chainState struct {
	slots   [2][chainSz]uint64
	removed [2]bool // registry entry cleared
	threads []chainThread
}

func (s chainState) clone() chainState {
	ns := s
	ns.threads = append([]chainThread(nil), s.threads...)
	return ns
}

func (s chainState) key() string {
	b := make([]byte, 0, 2*chainSz*8+len(s.threads)*32)
	for n := 0; n < 2; n++ {
		for i := 0; i < chainSz; i++ {
			w := s.slots[n][i]
			for k := 0; k < 8; k++ {
				b = append(b, byte(w>>(8*k)))
			}
		}
		b = append(b, boolByte(s.removed[n]))
	}
	for _, t := range s.threads {
		b = append(b, byte(t.kind), t.pc, byte(t.nd), byte(t.idx), byte(t.opIdx))
		for _, w := range [3]uint64{t.in, t.out, t.far} {
			for k := 0; k < 8; k++ {
				b = append(b, byte(w>>(8*k)))
			}
		}
		b = append(b, byte(t.res.Val), boolByte(t.res.Done), boolByte(t.res.Empty))
		for _, o := range t.done {
			b = append(b, byte(o.Kind), byte(o.Arg), byte(o.Val), boolByte(o.Done), boolByte(o.Empty))
		}
	}
	return string(b)
}

// chain program counters. The straddling pop progression threads through
// seal and remove phases within one attempt, mirroring core's popTransitions.
const (
	cpcChoose uint8 = iota
	cpcLoadIn
	cpcLoadOut
	cpcLoadFar
	cpcLoadBack
	cpcEmptyReread // interior/boundary empty re-read
	cpcSealCAS1    // seal: bump in
	cpcSealCAS2    // seal: far -> seal value
	cpcE2Reread    // straddling empty re-read
	cpcRemoveCAS1  // remove: bump in
	cpcRemoveCAS2  // remove: out -> null
	cpcCAS1        // interior/boundary/straddle: first CAS
	cpcCAS2        // second CAS
	cpcChainDone
)

type chainThread struct {
	ops   []OpKind
	args  []uint32
	opIdx int
	kind  OpKind
	arg   uint32
	pc    uint8
	nd    int // oracle's node choice
	idx   int // oracle's index choice
	in    uint64
	out   uint64
	far   uint64
	// straddle bookkeeping
	nbr      int  // neighbor node
	straddle bool // current attempt went down the straddling branch
	res      Outcome
	done     []Outcome
}

func (t *chainThread) beginOp() {
	k := t.ops[t.opIdx]
	t.kind = k
	t.pc = cpcChoose
	t.nd, t.idx = 0, 0
	t.in, t.out, t.far = 0, 0, 0
	t.straddle = false
	t.res = Outcome{Kind: k}
	t.arg = t.args[t.opIdx]
	t.res.Arg = t.arg
}

func (t *chainThread) finishOp() {
	t.done = append(t.done, t.res)
	t.opIdx++
	if t.opIdx < len(t.ops) {
		t.beginOp()
	} else {
		t.pc = cpcChainDone
	}
}

// ChainConfig parameterizes a two-node exploration. The chain starts as
// A ↔ B with A's data slots from InitialA (contiguous, right-aligned so
// the span is adjacent to the link) and B's from InitialB (left-aligned).
type ChainConfig struct {
	InitialA []uint32 // at most chainSz-2 values, occupy A's rightmost data slots
	InitialB []uint32 // at most chainSz-2 values, occupy B's leftmost data slots
	// SealA stages A as left-sealed (LS in its innermost data slot, no
	// data): the state a stalled left-side pop leaves between its seal and
	// remove. SealB mirrors it with RS on B. They require the matching
	// Initial slice to be empty.
	SealA  bool
	SealB  bool
	Seqs   [][]OpKind
	stepFn func(chainState, int) ([]chainState, error)
}

// ChainCheck explores every interleaving of cfg, validating chain
// well-formedness at every state and linearizability at every leaf.
func ChainCheck(cfg ChainConfig) (Result, error) {
	if len(cfg.InitialA) > chainSz-2 || len(cfg.InitialB) > chainSz-2 {
		return Result{}, fmt.Errorf("modelcheck: initial values overflow a node")
	}
	var s chainState
	// Node A: [LN | LN* data* | ->B]
	s.slots[nodeA][0] = word.Pack(word.LN, 0)
	for i := 1; i < chainSz-1; i++ {
		s.slots[nodeA][i] = word.Pack(word.LN, 0)
	}
	for i, v := range cfg.InitialA {
		s.slots[nodeA][chainSz-1-len(cfg.InitialA)+i] = word.Pack(v, 0)
	}
	s.slots[nodeA][chainSz-1] = word.Pack(nodeB, 0)
	// Node B: [->A | data* RN* | RN]
	s.slots[nodeB][0] = word.Pack(nodeA, 0)
	for i := 1; i < chainSz; i++ {
		s.slots[nodeB][i] = word.Pack(word.RN, 0)
	}
	for i, v := range cfg.InitialB {
		s.slots[nodeB][1+i] = word.Pack(v, 0)
	}
	if cfg.SealA {
		if len(cfg.InitialA) != 0 {
			return Result{}, fmt.Errorf("modelcheck: SealA requires empty InitialA")
		}
		s.slots[nodeA][chainSz-2] = word.Pack(word.LS, 1)
	}
	if cfg.SealB {
		if len(cfg.InitialB) != 0 {
			return Result{}, fmt.Errorf("modelcheck: SealB requires empty InitialB")
		}
		s.slots[nodeB][1] = word.Pack(word.RS, 1)
	}

	arg := uint32(100)
	for _, ops := range cfg.Seqs {
		if len(ops) == 0 {
			return Result{}, fmt.Errorf("modelcheck: empty op sequence")
		}
		th := chainThread{ops: ops}
		plan := make([]uint32, len(ops))
		for i, k := range ops {
			if k == PushLeft || k == PushRight {
				plan[i] = arg
				arg++
			}
		}
		th.args = plan
		th.beginOp()
		s.threads = append(s.threads, th)
	}
	if err := chainWellFormed(s); err != nil {
		return Result{}, fmt.Errorf("modelcheck: bad initial chain: %w", err)
	}
	stepFn := cfg.stepFn
	if stepFn == nil {
		stepFn = chainStep
	}
	e := &chainExplorer{
		initial: chainContents(s),
		visited: make(map[string]struct{}),
		stepFn:  stepFn,
	}
	err := e.dfs(s)
	return e.res, err
}

type chainExplorer struct {
	initial []uint32
	visited map[string]struct{}
	stepFn  func(chainState, int) ([]chainState, error)
	res     Result
}

func (e *chainExplorer) dfs(s chainState) error {
	k := s.key()
	if _, seen := e.visited[k]; seen {
		return nil
	}
	e.visited[k] = struct{}{}
	e.res.States++
	if err := chainWellFormed(s); err != nil {
		return fmt.Errorf("chain invariant violated: %w\n%s", err, chainDump(s))
	}
	allDone := true
	for ti := range s.threads {
		if s.threads[ti].pc == cpcChainDone {
			continue
		}
		allDone = false
		succs, err := e.stepFn(s, ti)
		if err != nil {
			return err
		}
		for _, ns := range succs {
			if err := e.dfs(ns); err != nil {
				return err
			}
		}
	}
	if allDone {
		e.res.Interleaved++
		return e.checkLeaf(s)
	}
	return nil
}

func (e *chainExplorer) checkLeaf(s chainState) error {
	var seqs [][]Outcome
	total := 0
	for _, t := range s.threads {
		var completed []Outcome
		for _, o := range t.done {
			if o.Done {
				completed = append(completed, o)
			} else {
				e.res.RetryAborted++
			}
		}
		if len(completed) > 0 {
			seqs = append(seqs, completed)
			total += len(completed)
		}
	}
	if total > 0 {
		e.res.Linearized++
	}
	final := chainContents(s)
	if mergeReplay(e.initial, seqs, final) {
		return nil
	}
	return fmt.Errorf("non-linearizable chain leaf: outcomes %v, initial %v, final %v\n%s",
		seqs, e.initial, final, chainDump(s))
}

// chainContents flattens the data values in chain order. Sealed/removed
// nodes hold no data, so a simple A-then-B flatten is the abstract state.
func chainContents(s chainState) []uint32 {
	var out []uint32
	for n := 0; n < 2; n++ {
		for i := 1; i < chainSz-1; i++ {
			if v := word.Val(s.slots[n][i]); !word.IsReserved(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// chainWellFormed validates the flattened LN* (LS LN*)? data* RN* (RS RN*)?
// shape over the chain, plus link-slot sanity.
func chainWellFormed(s chainState) error {
	const (
		phLN = iota
		phData
		phRN
	)
	ph := phLN
	sawLS, sawRS := false, false
	for n := 0; n < 2; n++ {
		for i := 1; i < chainSz-1; i++ {
			v := word.Val(s.slots[n][i])
			switch {
			case v == word.LN:
				if ph != phLN {
					return fmt.Errorf("LN after span (node %d slot %d)", n, i)
				}
			case v == word.LS:
				if ph != phLN || i != chainSz-2 {
					return fmt.Errorf("misplaced LS (node %d slot %d)", n, i)
				}
				if sawLS {
					return fmt.Errorf("two LS seals")
				}
				sawLS = true
			case v == word.RN:
				ph = phRN
			case v == word.RS:
				if i != 1 {
					return fmt.Errorf("misplaced RS (node %d slot %d)", n, i)
				}
				if sawRS {
					return fmt.Errorf("two RS seals")
				}
				sawRS = true
				ph = phRN
			default:
				if ph == phRN {
					return fmt.Errorf("datum after RN (node %d slot %d)", n, i)
				}
				ph = phData
			}
		}
	}
	// Opposite-side seals must never point at each other: A left-sealed
	// and B right-sealed while still mutually linked is the state the
	// empty checks exist to prevent.
	aSealed := word.Val(s.slots[nodeA][chainSz-2]) == word.LS
	bSealed := word.Val(s.slots[nodeB][1]) == word.RS
	aLinked := word.Val(s.slots[nodeA][chainSz-1]) == nodeB &&
		word.Val(s.slots[nodeB][0]) == nodeA
	if aSealed && bSealed && aLinked {
		return fmt.Errorf("two sealed nodes point at each other")
	}
	return nil
}

func chainDump(s chainState) string {
	out := ""
	for n := 0; n < 2; n++ {
		out += fmt.Sprintf("node %d removed=%v [", n, s.removed[n])
		for i := 0; i < chainSz; i++ {
			if i > 0 {
				out += " "
			}
			w := s.slots[n][i]
			out += fmt.Sprintf("%s/%d", word.Name(word.Val(w)), word.Ct(w))
		}
		out += "]\n"
	}
	for i, t := range s.threads {
		out += fmt.Sprintf("  t%d %v pc=%d nd=%d idx=%d straddle=%v %v\n",
			i, t.kind, t.pc, t.nd, t.idx, t.straddle, t.res)
	}
	return out
}
