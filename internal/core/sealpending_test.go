package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// pendingRightSeal constructs the state that livelocked the left side
// before the validation fix: an empty chain [nd0 (all LN)] ↔ [nd1 (RS at
// slot 1)], i.e. a right-side pop sealed nd1 and stalled before removing
// it. The left side must make progress alone from here (Theorem 2).
func pendingRightSeal(t *testing.T) (*Deque, *node, *node) {
	t.Helper()
	d := New(Config{NodeSize: 6, MaxThreads: 8})
	// Hand-build the exact state a stalled right-side pop leaves behind
	// after its seal (L5) and before its remove (L7): an empty chain
	// nd0=[LN | LN LN LN LN | →nd1], nd1=[→nd0 | RS RN RN RN | RN].
	// (Reaching it through the public API is impossible single-threaded —
	// seal and remove happen within one call — which is exactly why it
	// needs staging.)
	nd0, _ := d.hint[obs.SideLeft].get()
	for i := 1; i < 5; i++ {
		nd0.slots[i].Store(word.Pack(word.LN, 1))
	}
	nd1 := d.newNode(0) // all RN
	nd1.slots[0].Store(word.Pack(nd0.id, 0))
	nd1.slots[1].Store(word.Pack(word.RS, 1)) // the staged seal
	nd0.slots[5].Store(word.Pack(nd1.id, 1))
	return d, nd0, nd1
}

func TestLeftOracleReturnsPendingRSStraddle(t *testing.T) {
	d, _, nd1 := pendingRightSeal(t)
	done := make(chan struct{})
	var edge *node
	var idx int
	go func() {
		defer close(done)
		edge, idx, _ = d.oracle(nil, obs.SideLeft, new(obs.Rec))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("left oracle wedged on pending right seal")
	}
	if edge != nd1 || idx != 1 {
		t.Fatalf("left oracle = (node %d, %d), want (node %d, 1)", edge.id, idx, nd1.id)
	}
}

func TestPopLeftReportsEmptyUnderPendingRS(t *testing.T) {
	d, _, _ := pendingRightSeal(t)
	h := d.Register()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, ok := d.PopLeft(h); ok {
			t.Errorf("PopLeft = (%d,true), want EMPTY", v)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("PopLeft wedged on pending right seal (E2 unreachable)")
	}
}

func TestPushLeftProgressesUnderPendingRS(t *testing.T) {
	d, nd0, _ := pendingRightSeal(t)
	h := d.Register()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := d.PushLeft(h, 42); err != nil {
			t.Error(err)
			return
		}
		if v, ok := d.PopLeft(h); !ok || v != 42 {
			t.Errorf("PopLeft = (%d,%v), want (42,true)", v, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("PushLeft wedged on pending right seal (Theorem 2 violated)")
	}
	// The straddle push lands in nd0's innermost slot (then is popped).
	if got := word.Val(nd0.slots[4].Load()); got != word.LN {
		t.Fatalf("nd0 inner slot = %s after push+pop, want LN", word.Name(got))
	}
}

func TestStalledSealerCannotCorruptAfterLeftPush(t *testing.T) {
	// The stalled right-popper wakes after a left push and tries its
	// remove with stale copies; every CAS must fail and the deque stays
	// consistent.
	d, nd0, nd1 := pendingRightSeal(t)
	// Stale copies as the right-popper would hold them (post-seal).
	staleIn := nd0.slots[4].Load()  // right-side 'in' = nd0 innermost
	staleOut := nd0.slots[5].Load() // right-side 'out' = link to nd1
	h := d.Register()
	if err := d.PushLeft(h, 42); err != nil {
		t.Fatal(err)
	}
	// Wake the "stalled" remover: replay its two CASes.
	okIn := nd0.slots[4].CompareAndSwap(staleIn, word.Bump(staleIn))
	if okIn {
		t.Fatal("stalled remover's in-CAS succeeded despite the push")
	}
	_ = staleOut
	if v, ok := d.PopLeft(h); !ok || v != 42 {
		t.Fatalf("PopLeft = (%d,%v), want (42,true)", v, ok)
	}
	_ = nd1
}

func TestRightSideStillRemovesPendingRS(t *testing.T) {
	// The normal continuation: a right-side op removes the sealed node.
	d, _, nd1 := pendingRightSeal(t)
	h := d.Register()
	// A push on the right must remove nd1 (far==RS → L7) and then append
	// or straddle-push, completing.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := d.PushRight(h, 7); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("PushRight wedged on its own side's pending seal")
	}
	if d.resolve(nd1.id) != nil {
		t.Fatal("sealed node not removed by right-side progress")
	}
	if v, ok := d.PopRight(h); !ok || v != 7 {
		t.Fatalf("PopRight = (%d,%v), want (7,true)", v, ok)
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestLonePushRightEscapesUnlinkedLeftHint is the solo run obstruction
// freedom must finish: the left hint names nd1 — registered and RS-sealed —
// and a lone PushRight removes it (L7), unlinking it from nd0, whose
// innermost slot is empty. The remover's own left-hint refresh then starts
// on nd1. If nd1's escape were still nil at that point, the walk would read
// it, restart from the same unchanged hint and never return; the escape
// must be stored before the refresh walks. The push runs in its own
// goroutine only so the test can stop it: it fails once the left oracle has
// restarted more than a budget of times without the push returning.
func TestLonePushRightEscapesUnlinkedLeftHint(t *testing.T) {
	if !obs.Enabled {
		t.Skip("the restart budget reads counters compiled out (obsoff)")
	}
	d, _, nd1 := pendingRightSeal(t)
	d.hint[obs.SideLeft].set(d.hint[obs.SideLeft].w.Load(), nd1)
	h := d.Register()
	done := make(chan error, 1)
	go func() { done <- d.PushRight(h, 7) }()
	const budget = 1000
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if v, ok := d.PopLeft(h); !ok || v != 7 {
				t.Fatalf("PopLeft = (%d,%v), want (7,true)", v, ok)
			}
			if err := d.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		if n := h.rec.Load(obs.CtrOracleRestart); n > budget {
			t.Fatalf("PushRight has not returned after %d oracle restarts on an unchanged left hint\n%s",
				n, d.Dump())
		}
		runtime.Gosched()
	}
}

// pendingLeftSeal mirrors pendingRightSeal: [nd0 (LS at sz-2)] ↔ [nd1 all
// RN], a left-side pop stalled between seal and remove.
func pendingLeftSeal(t *testing.T) (*Deque, *node, *node) {
	t.Helper()
	d := New(Config{NodeSize: 6, MaxThreads: 8})
	// Mirror of pendingRightSeal: nd0=[LN | LN LN LN LS | →nd1],
	// nd1=[→nd0 | RN RN RN RN | RN] — a left-side pop sealed nd0 and
	// stalled before removing it.
	nd1, _ := d.hint[obs.SideLeft].get()
	for i := 1; i < 5; i++ {
		nd1.slots[i].Store(word.Pack(word.RN, 1))
	}
	nd0 := d.newNode(6)                       // all LN
	nd0.slots[4].Store(word.Pack(word.LS, 1)) // the staged seal
	nd0.slots[5].Store(word.Pack(nd1.id, 1))
	nd1.slots[0].Store(word.Pack(nd0.id, 1))
	return d, nd0, nd1
}

func TestRightSideProgressesUnderPendingLS(t *testing.T) {
	d, _, _ := pendingLeftSeal(t)
	h := d.Register()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, ok := d.PopRight(h); ok {
			t.Errorf("PopRight = (%d,true), want EMPTY", v)
			return
		}
		if err := d.PushRight(h, 9); err != nil {
			t.Error(err)
			return
		}
		if v, ok := d.PopRight(h); !ok || v != 9 {
			t.Errorf("PopRight = (%d,%v), want (9,true)", v, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("right side wedged on pending left seal")
	}
}

func TestConcurrentSealPendingChurn(t *testing.T) {
	// Concurrent pushers/poppers on both sides of a tiny deque constantly
	// create pending-seal windows; nothing may wedge and conservation must
	// hold. This is the concurrent regression for the livelock the race
	// detector caught in the conformance drain test.
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 8})
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := d.Register()
				iters := 30000
				if testing.Short() {
					iters = 8000
				}
				for i := 0; i < iters; i++ {
					switch (i + w) % 4 {
					case 0:
						d.PushLeft(h, uint32(i))
					case 1:
						d.PushRight(h, uint32(i))
					case 2:
						d.PopLeft(h)
					case 3:
						d.PopRight(h)
					}
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("churn wedged")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedChainCascadeUnregister stages the state the paper's proof
// permits — "another sealed node which has been sealed on the same side":
// S1(LS) ← S2(LS) ← nd1(active). Removing S2 from edge nd1 must also
// unregister S1, which became unreachable with it (the original's tracing
// GC would collect it; our registry must drop it explicitly).
func TestSealedChainCascadeUnregister(t *testing.T) {
	d := New(Config{NodeSize: 6, MaxThreads: 4})
	nd1, _ := d.hint[obs.SideLeft].get()
	// nd1: datum at slot 1, RN elsewhere.
	nd1.slots[1].Store(word.Pack(77, 1))
	for i := 2; i < 5; i++ {
		nd1.slots[i].Store(word.Pack(word.RN, 1))
	}
	// S2: left-sealed, links back to nd1, left link to S1.
	s2 := d.newNode(6)
	s2.slots[4].Store(word.Pack(word.LS, 1))
	s2.slots[5].Store(word.Pack(nd1.id, 1))
	// S1: left-sealed, left border LN, right link to S2.
	s1 := d.newNode(6)
	s1.slots[4].Store(word.Pack(word.LS, 1))
	s1.slots[5].Store(word.Pack(s2.id, 1))
	s2.slots[0].Store(word.Pack(s1.id, 1))
	nd1.slots[0].Store(word.Pack(s2.id, 1))

	h := d.Register()
	// A left pop at the straddle removes S2 (far == LS) and then pops 77.
	v, ok := d.PopLeft(h)
	if !ok || v != 77 {
		t.Fatalf("PopLeft = (%d,%v), want (77,true)", v, ok)
	}
	if h.Removes != 1 {
		t.Fatalf("Removes = %d, want 1", h.Removes)
	}
	if d.resolve(s2.id) != nil {
		t.Fatal("S2 still registered after removal")
	}
	if d.resolve(s1.id) != nil {
		t.Fatal("S1 not cascade-unregistered with S2")
	}
	if s1.escape.Load() == nil || s2.escape.Load() == nil {
		t.Fatal("cascade did not install escape pointers")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedChainCascadeUnregisterRight mirrors the cascade for right-side
// sealed chains: nd1(active) → S2(RS) → S1(RS).
func TestSealedChainCascadeUnregisterRight(t *testing.T) {
	d := New(Config{NodeSize: 6, MaxThreads: 4})
	nd1, _ := d.hint[obs.SideLeft].get()
	nd1.slots[4].Store(word.Pack(77, 1))
	for i := 1; i < 4; i++ {
		nd1.slots[i].Store(word.Pack(word.LN, 1))
	}
	s2 := d.newNode(0)
	s2.slots[1].Store(word.Pack(word.RS, 1))
	s2.slots[0].Store(word.Pack(nd1.id, 1))
	s1 := d.newNode(0)
	s1.slots[1].Store(word.Pack(word.RS, 1))
	s1.slots[0].Store(word.Pack(s2.id, 1))
	s2.slots[5].Store(word.Pack(s1.id, 1))
	nd1.slots[5].Store(word.Pack(s2.id, 1))

	h := d.Register()
	v, ok := d.PopRight(h)
	if !ok || v != 77 {
		t.Fatalf("PopRight = (%d,%v), want (77,true)", v, ok)
	}
	if d.resolve(s2.id) != nil || d.resolve(s1.id) != nil {
		t.Fatal("right-side sealed chain not fully unregistered")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
