package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/word"
)

// Whitebox transition tests: construct exact node states and drive single
// transition attempts, covering the validation clauses of lines 84-87 and
// 158-161 and the seal/remove progression deterministically — states that
// concurrent runs only hit probabilistically.

// mk builds a deque with one node whose data slots are set from vals
// (border slots from lb/rb), counters zero. vals must have length sz-2.
func mk(t *testing.T, sz int, lb uint32, vals []uint32, rb uint32) (*Deque, *node) {
	t.Helper()
	if len(vals) != sz-2 {
		t.Fatalf("need %d data values, got %d", sz-2, len(vals))
	}
	d := New(Config{NodeSize: sz, MaxThreads: 4})
	nd, _ := d.hint[obs.SideLeft].get()
	nd.slots[0].Store(word.Pack(lb, 0))
	for i, v := range vals {
		nd.slots[1+i].Store(word.Pack(v, 0))
	}
	nd.slots[sz-1].Store(word.Pack(rb, 0))
	return d, nd
}

func TestValidationRejectsLNInSlot(t *testing.T) {
	// in == LN must force a retry (stale oracle), never a transition.
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, 5, word.RN}, word.RN)
	h := d.Register()
	// Claim the edge is at index 2 (which holds LN).
	if d.pushTransitions(h, obs.SideLeft, 9, nd, 2, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push accepted an LN in-slot")
	}
	if _, _, done := d.popTransitions(h, obs.SideLeft, nd, 2, d.hint[obs.SideLeft].w.Load()); done {
		t.Fatal("pop accepted an LN in-slot")
	}
}

func TestRSInSlotReportsEmptyNeverPops(t *testing.T) {
	// in == RS at a boundary: the right side certified the deque empty and
	// is mid-removal. A pop must report EMPTY (never hand out the seal as
	// a value); a push must not treat the state as pushable here (the
	// node has no left neighbor — stale, retry).
	d, nd := mk(t, 6, word.LN, []uint32{word.RS, word.RN, word.RN, word.RN}, word.RN)
	h := d.Register()
	if d.pushTransitions(h, obs.SideLeft, 9, nd, 1, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push claimed success on an RS boundary with no neighbor")
	}
	v, empty, done := d.popTransitions(h, obs.SideLeft, nd, 1, d.hint[obs.SideLeft].w.Load())
	if !done || !empty || v != 0 {
		t.Fatalf("pop on RS boundary = (%d,empty=%v,done=%v), want EMPTY", v, empty, done)
	}
	if got := word.Val(nd.slots[1].Load()); got != word.RS {
		t.Fatalf("seal slot changed to %s", word.Name(got))
	}
}

func TestValidationRejectsNonLNOut(t *testing.T) {
	// For an interior edge claim, out must be LN.
	d, nd := mk(t, 6, word.LN, []uint32{7, 8, word.RN, word.RN}, word.RN)
	h := d.Register()
	// Claim edge at index 2 (datum 8) — its out (index 1) holds datum 7.
	if d.pushTransitions(h, obs.SideLeft, 9, nd, 2, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push accepted a non-LN out-slot")
	}
	if _, _, done := d.popTransitions(h, obs.SideLeft, nd, 2, d.hint[obs.SideLeft].w.Load()); done {
		t.Fatal("pop accepted a non-LN out-slot")
	}
}

func TestValidationBorderRequiresRN(t *testing.T) {
	// Claiming the edge at sz-1 is only valid when that slot holds RN.
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, word.LN, word.LN}, word.RN)
	nd.slots[5].Store(word.Pack(12345, 0)) // a link ID, not RN
	h := d.Register()
	if d.pushTransitions(h, obs.SideLeft, 9, nd, 5, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push accepted a link in-slot at the border")
	}
}

func TestInteriorPushSucceeds(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, 7, 8, word.RN}, word.RN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideLeft, 6, nd, 2, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("valid interior push failed")
	}
	if got := word.Val(nd.slots[1].Load()); got != 6 {
		t.Fatalf("slot 1 = %s, want 6", word.Name(got))
	}
	if ct := word.Ct(nd.slots[2].Load()); ct != 1 {
		t.Fatalf("in-slot counter = %d, want 1 (bumped)", ct)
	}
}

func TestInteriorPushOntoEmptyNode(t *testing.T) {
	// in may be RN (empty span): push writes into out.
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, word.RN, word.RN}, word.RN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideLeft, 42, nd, 3, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push onto empty span failed")
	}
	if got := word.Val(nd.slots[2].Load()); got != 42 {
		t.Fatalf("slot 2 = %s, want 42", word.Name(got))
	}
}

func TestInteriorPopSucceedsAndClearsToLN(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, 7, 8, word.RN}, word.RN)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideLeft, nd, 2, d.hint[obs.SideLeft].w.Load())
	if !done || empty || v != 7 {
		t.Fatalf("pop = (%d, empty=%v, done=%v), want (7,false,true)", v, empty, done)
	}
	if got := word.Val(nd.slots[2].Load()); got != word.LN {
		t.Fatalf("popped slot = %s, want LN", word.Name(got))
	}
}

func TestEmptyCheckE1(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, word.RN, word.RN}, word.RN)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideLeft, nd, 3, d.hint[obs.SideLeft].w.Load())
	if !done || !empty || v != 0 {
		t.Fatalf("E1 = (%d, empty=%v, done=%v), want (0,true,true)", v, empty, done)
	}
	// The check is read-only: counters untouched.
	if ct := word.Ct(nd.slots[3].Load()); ct != 0 {
		t.Fatalf("empty check bumped a counter (ct=%d)", ct)
	}
}

func TestBoundaryPop(t *testing.T) {
	// Single datum at slot 1 with LN border: boundary pop (L4).
	d, nd := mk(t, 6, word.LN, []uint32{9, word.RN, word.RN, word.RN}, word.RN)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideLeft, nd, 1, d.hint[obs.SideLeft].w.Load())
	if !done || empty || v != 9 {
		t.Fatalf("boundary pop = (%d,%v,%v), want (9,false,true)", v, empty, done)
	}
	if got := word.Val(nd.slots[1].Load()); got != word.LN {
		t.Fatalf("popped slot = %s, want LN", word.Name(got))
	}
}

func TestBoundaryEmptyCheckE3(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.RN, word.RN, word.RN, word.RN}, word.RN)
	h := d.Register()
	_, empty, done := d.popTransitions(h, obs.SideLeft, nd, 1, d.hint[obs.SideLeft].w.Load())
	if !done || !empty {
		t.Fatalf("E3 = (empty=%v, done=%v), want (true,true)", empty, done)
	}
}

func TestAppendCreatesLinkedNode(t *testing.T) {
	// Datum at slot 1, LN border: a push at the boundary appends (L6).
	d, nd := mk(t, 6, word.LN, []uint32{9, word.RN, word.RN, word.RN}, word.RN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideLeft, 4, nd, 1, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("append failed")
	}
	lv := word.Val(nd.slots[0].Load())
	if word.IsReserved(lv) {
		t.Fatalf("border slot = %s, want a link ID", word.Name(lv))
	}
	nw := d.resolve(lv)
	if nw == nil {
		t.Fatal("appended node not registered")
	}
	if got := word.Val(nw.slots[4].Load()); got != 4 {
		t.Fatalf("new node innermost = %s, want 4", word.Name(got))
	}
	if back := word.Val(nw.slots[5].Load()); back != nd.id {
		t.Fatalf("new node back-link = %d, want %d", back, nd.id)
	}
	if h.Appends != 1 {
		t.Fatalf("Appends = %d, want 1", h.Appends)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// straddle builds a two-node chain: left node (all LN except innermost
// holding farVal) linked to a right node whose slot 1 holds a datum.
func straddle(t *testing.T, farVal uint32) (*Deque, *node, *node) {
	t.Helper()
	d := New(Config{NodeSize: 6, MaxThreads: 4})
	h := d.Register()
	// Fill leftward until an append occurs, guaranteeing a straddling link.
	for i := uint32(0); i < 10 && h.Appends == 0; i++ {
		if err := d.PushLeft(h, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if h.Appends == 0 {
		t.Fatal("could not provoke an append")
	}
	ch := d.chain()
	if len(ch) < 2 {
		t.Fatalf("chain has %d nodes", len(ch))
	}
	left, right := ch[0], ch[1]
	// Normalize: left node's innermost data slot takes farVal; everything
	// else in the left node becomes LN.
	for i := 1; i < 5; i++ {
		left.slots[i].Store(word.Pack(word.LN, 0))
	}
	left.slots[4].Store(word.Pack(farVal, 0))
	// Right node: one datum at slot 1, RN elsewhere.
	right.slots[1].Store(word.Pack(77, 0))
	for i := 2; i < 5; i++ {
		right.slots[i].Store(word.Pack(word.RN, 0))
	}
	return d, left, right
}

func TestStraddlingPushL3(t *testing.T) {
	d, left, right := straddle(t, word.LN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideLeft, 55, right, 1, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("straddling push failed")
	}
	if got := word.Val(left.slots[4].Load()); got != 55 {
		t.Fatalf("far slot = %s, want 55", word.Name(got))
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestSealThenRemoveThenBoundaryPop(t *testing.T) {
	// The full straddling pop progression (L5 → L7 → L4) in one attempt.
	d, left, right := straddle(t, word.LN)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideLeft, right, 1, d.hint[obs.SideLeft].w.Load())
	if !done || empty || v != 77 {
		t.Fatalf("progression = (%d,%v,%v), want (77,false,true)", v, empty, done)
	}
	if h.Removes != 1 {
		t.Fatalf("Removes = %d, want 1", h.Removes)
	}
	// The sealed neighbor must be unregistered, sealed, and escaped.
	if d.resolve(left.id) != nil {
		t.Fatal("removed node still registered")
	}
	if got := word.Val(left.slots[4].Load()); got != word.LS {
		t.Fatalf("sealed slot = %s, want LS", word.Name(got))
	}
	if left.escape.Load() == nil {
		t.Fatal("removed node has no escape pointer")
	}
	// The edge node's border must be LN again.
	if got := word.Val(right.slots[0].Load()); got != word.LN {
		t.Fatalf("edge border = %s, want LN", word.Name(got))
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRemovePreSealedNeighbor(t *testing.T) {
	// far already LS (another thread sealed and stalled): the pop must
	// remove the neighbor and still complete via boundary pop.
	d, left, right := straddle(t, word.LS)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideLeft, right, 1, d.hint[obs.SideLeft].w.Load())
	if !done || empty || v != 77 {
		t.Fatalf("pop = (%d,%v,%v), want (77,false,true)", v, empty, done)
	}
	if d.resolve(left.id) != nil {
		t.Fatal("pre-sealed neighbor not removed")
	}
}

func TestPushRemovesSealedNeighbor(t *testing.T) {
	// A push finding a sealed neighbor removes it (L7) and retries; the
	// single attempt reports false but must have done the removal.
	d, left, right := straddle(t, word.LS)
	h := d.Register()
	if d.pushTransitions(h, obs.SideLeft, 5, right, 1, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push reported success while only removing")
	}
	if h.Removes != 1 {
		t.Fatalf("Removes = %d, want 1", h.Removes)
	}
	if d.resolve(left.id) != nil {
		t.Fatal("sealed neighbor not unregistered")
	}
	// Retry now appends a fresh node and succeeds via the normal path.
	if err := d.PushLeft(h, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestStraddlingEmptyCheckE2(t *testing.T) {
	// Straddling edge with the edge node empty (in == RN): E2 must report
	// EMPTY without sealing.
	d, left, right := straddle(t, word.LN)
	right.slots[1].Store(word.Pack(word.RN, 0)) // edge node now empty
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideLeft, right, 1, d.hint[obs.SideLeft].w.Load())
	if !done || !empty || v != 0 {
		t.Fatalf("E2 = (%d,%v,%v), want (0,true,true)", v, empty, done)
	}
	if got := word.Val(left.slots[4].Load()); got != word.LN {
		t.Fatalf("E2 sealed the neighbor (far = %s)", word.Name(got))
	}
}

func TestBackCheckRejectsWrongNeighbor(t *testing.T) {
	// If the neighbor does not point back at the edge node, the straddle
	// must be rejected (lines 118-120).
	d, left, right := straddle(t, word.LN)
	left.slots[5].Store(word.Pack(left.id, 0)) // break the back-link
	h := d.Register()
	if d.pushTransitions(h, obs.SideLeft, 5, right, 1, d.hint[obs.SideLeft].w.Load()) {
		t.Fatal("push accepted a neighbor that does not point back")
	}
	if _, _, done := d.popTransitions(h, obs.SideLeft, right, 1, d.hint[obs.SideLeft].w.Load()); done {
		t.Fatal("pop accepted a neighbor that does not point back")
	}
}
