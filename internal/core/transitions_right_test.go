package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/word"
)

// Right-side mirrors of the whitebox transition tests. The mirror mapping
// is 1 ↔ sz-2, LN ↔ RN, LS ↔ RS; the states below are the reflections of
// the left-side cases. The transitions take logical indices of their side:
// on the right, index j is physical slot sz-1-j, so with sz = 6 the index 2
// names slot 3 and the index 1 names slot 4.

func TestRValidationRejectsRNInSlot(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, 5, word.RN, word.RN}, word.RN)
	h := d.Register()
	if d.pushTransitions(h, obs.SideRight, 9, nd, 2, d.hint[obs.SideRight].w.Load()) {
		t.Fatal("push accepted an RN in-slot")
	}
	if _, _, done := d.popTransitions(h, obs.SideRight, nd, 2, d.hint[obs.SideRight].w.Load()); done {
		t.Fatal("pop accepted an RN in-slot")
	}
}

func TestRLSInSlotReportsEmptyNeverPops(t *testing.T) {
	// Mirror of the RS boundary case: LS seen by the right side at a
	// boundary reports EMPTY; a push retries.
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, word.LN, word.LS}, word.RN)
	h := d.Register()
	if d.pushTransitions(h, obs.SideRight, 9, nd, 1, d.hint[obs.SideRight].w.Load()) {
		t.Fatal("push claimed success on an LS boundary with no neighbor")
	}
	v, empty, done := d.popTransitions(h, obs.SideRight, nd, 1, d.hint[obs.SideRight].w.Load())
	if !done || !empty || v != 0 {
		t.Fatalf("pop on LS boundary = (%d,empty=%v,done=%v), want EMPTY", v, empty, done)
	}
	if got := word.Val(nd.slots[4].Load()); got != word.LS {
		t.Fatalf("seal slot changed to %s", word.Name(got))
	}
}

func TestRInteriorPushPop(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, 7, 8, word.RN}, word.RN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideRight, 9, nd, 2, d.hint[obs.SideRight].w.Load()) {
		t.Fatal("valid interior push failed")
	}
	if got := word.Val(nd.slots[4].Load()); got != 9 {
		t.Fatalf("slot 4 = %s, want 9", word.Name(got))
	}
	v, empty, done := d.popTransitions(h, obs.SideRight, nd, 1, d.hint[obs.SideRight].w.Load())
	if !done || empty || v != 9 {
		t.Fatalf("pop = (%d,%v,%v), want (9,false,true)", v, empty, done)
	}
	if got := word.Val(nd.slots[4].Load()); got != word.RN {
		t.Fatalf("popped slot = %s, want RN", word.Name(got))
	}
}

func TestRBoundaryPopAndE3(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, word.LN, 9}, word.RN)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideRight, nd, 1, d.hint[obs.SideRight].w.Load())
	if !done || empty || v != 9 {
		t.Fatalf("boundary pop = (%d,%v,%v), want (9,false,true)", v, empty, done)
	}
	// Now empty: the oracle lands on the rightmost LN (interior) and the
	// pop reports EMPTY via the appropriate snapshot check.
	edge, idx, hw := d.oracle(nil, obs.SideRight, new(obs.Rec))
	_, empty, done = d.popTransitions(h, obs.SideRight, edge, idx, hw)
	if !done || !empty {
		t.Fatalf("empty check = (empty=%v,done=%v) at idx %d, want (true,true)", empty, done, idx)
	}
}

func TestRAppend(t *testing.T) {
	d, nd := mk(t, 6, word.LN, []uint32{word.LN, word.LN, word.LN, 9}, word.RN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideRight, 4, nd, 1, d.hint[obs.SideRight].w.Load()) {
		t.Fatal("append failed")
	}
	rv := word.Val(nd.slots[5].Load())
	if word.IsReserved(rv) {
		t.Fatalf("border = %s, want link", word.Name(rv))
	}
	nw := d.resolve(rv)
	if nw == nil {
		t.Fatal("appended node unregistered")
	}
	if got := word.Val(nw.slots[1].Load()); got != 4 {
		t.Fatalf("new node innermost = %s, want 4", word.Name(got))
	}
	if back := word.Val(nw.slots[0].Load()); back != nd.id {
		t.Fatalf("back-link = %d, want %d", back, nd.id)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// straddleR builds left-node(datum at sz-2) ← right-node(all RN except
// innermost farVal at slot 1): a right-side straddling edge.
func straddleR(t *testing.T, farVal uint32) (*Deque, *node, *node) {
	t.Helper()
	d := New(Config{NodeSize: 6, MaxThreads: 4})
	h := d.Register()
	for i := uint32(0); i < 10 && h.Appends == 0; i++ {
		if err := d.PushRight(h, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if h.Appends == 0 {
		t.Fatal("could not provoke an append")
	}
	ch := d.chain()
	left, right := ch[0], ch[1]
	for i := 1; i < 5; i++ {
		right.slots[i].Store(word.Pack(word.RN, 0))
	}
	right.slots[1].Store(word.Pack(farVal, 0))
	left.slots[4].Store(word.Pack(77, 0))
	for i := 1; i < 4; i++ {
		left.slots[i].Store(word.Pack(word.LN, 0))
	}
	return d, left, right
}

func TestRStraddlingPush(t *testing.T) {
	d, left, right := straddleR(t, word.RN)
	h := d.Register()
	if !d.pushTransitions(h, obs.SideRight, 55, left, 1, d.hint[obs.SideRight].w.Load()) {
		t.Fatal("straddling push failed")
	}
	if got := word.Val(right.slots[1].Load()); got != 55 {
		t.Fatalf("far slot = %s, want 55", word.Name(got))
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRSealRemoveBoundaryPop(t *testing.T) {
	d, left, right := straddleR(t, word.RN)
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideRight, left, 1, d.hint[obs.SideRight].w.Load())
	if !done || empty || v != 77 {
		t.Fatalf("progression = (%d,%v,%v), want (77,false,true)", v, empty, done)
	}
	if h.Removes != 1 {
		t.Fatalf("Removes = %d, want 1", h.Removes)
	}
	if d.resolve(right.id) != nil {
		t.Fatal("removed node still registered")
	}
	if got := word.Val(right.slots[1].Load()); got != word.RS {
		t.Fatalf("sealed slot = %s, want RS", word.Name(got))
	}
	if right.escape.Load() == nil {
		t.Fatal("removed node lacks escape")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

func TestRStraddlingEmptyCheck(t *testing.T) {
	d, left, right := straddleR(t, word.RN)
	left.slots[4].Store(word.Pack(word.LN, 0)) // edge node empty
	h := d.Register()
	v, empty, done := d.popTransitions(h, obs.SideRight, left, 1, d.hint[obs.SideRight].w.Load())
	if !done || !empty || v != 0 {
		t.Fatalf("E2 = (%d,%v,%v), want (0,true,true)", v, empty, done)
	}
	if got := word.Val(right.slots[1].Load()); got != word.RN {
		t.Fatalf("E2 sealed the neighbor (far = %s)", word.Name(got))
	}
}
