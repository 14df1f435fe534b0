package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// drainRemovedChain builds a multi-node chain, drains it so the early nodes
// are removed and unregistered, and returns those dead nodes (leftmost
// first).
func drainRemovedChain(t *testing.T, d *Deque, h *Handle, n int) []*node {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := d.PushLeft(h, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.chain()
	if len(before) < 3 {
		t.Fatalf("chain too short (%d nodes) to stage removals", len(before))
	}
	for i := 0; i < n; i++ {
		if _, ok := d.PopLeft(h); !ok {
			t.Fatal("premature empty")
		}
	}
	var dead []*node
	for _, nd := range before {
		if d.resolve(nd.id) == nil {
			dead = append(dead, nd)
		}
	}
	if len(dead) == 0 {
		t.Fatal("draining removed no nodes; cannot stage the regression")
	}
	return dead
}

// TestOracleEscapesDeadHint is the regression test for the solo livelock
// where the global hint's shadow pointed at a removed node whose inward
// link ID no longer resolved: the oracle restarted from the same dead hint
// forever. The escape pointer must route such walks back to the chain.
func TestOracleEscapesDeadHint(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 4})
	h := d.Register()
	dead := drainRemovedChain(t, d, h, 40)

	// Plant the oldest dead node (longest escape chain) as the left hint.
	oldest := dead[0]
	d.hint[obs.SideLeft].nd.Store(oldest)
	d.hint[obs.SideLeft].w.Store(word.Pack(oldest.id, 12345))

	done := make(chan struct{})
	go func() {
		defer close(done)
		h2 := d.Register()
		if err := d.PushLeft(h2, 7); err != nil {
			t.Error(err)
			return
		}
		if v, ok := d.PopLeft(h2); !ok || v != 7 {
			t.Errorf("PopLeft = (%d,%v), want (7,true)", v, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("oracle stuck on dead hint (escape pointers not followed)")
	}
	if err := d.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestOracleEscapesDeadRightHint mirrors the regression for the right side.
func TestOracleEscapesDeadRightHint(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 4})
	h := d.Register()
	// Build rightward, drain rightward: right-side removals.
	for i := 0; i < 40; i++ {
		if err := d.PushRight(h, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := d.chain()
	for i := 0; i < 40; i++ {
		if _, ok := d.PopRight(h); !ok {
			t.Fatal("premature empty")
		}
	}
	var dead []*node
	for _, nd := range before {
		if d.resolve(nd.id) == nil {
			dead = append(dead, nd)
		}
	}
	if len(dead) == 0 {
		t.Fatal("no removals staged")
	}
	newest := dead[len(dead)-1] // rightmost dead node
	d.hint[obs.SideRight].nd.Store(newest)
	d.hint[obs.SideRight].w.Store(word.Pack(newest.id, 54321))

	done := make(chan struct{})
	go func() {
		defer close(done)
		h2 := d.Register()
		if err := d.PushRight(h2, 9); err != nil {
			t.Error(err)
			return
		}
		if v, ok := d.PopRight(h2); !ok || v != 9 {
			t.Errorf("PopRight = (%d,%v), want (9,true)", v, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("right oracle stuck on dead hint")
	}
}

// TestEscapePointersSetOnRemoval checks the bookkeeping directly: every
// unregistered node must carry a non-nil escape that leads, transitively,
// to a registered node.
func TestEscapePointersSetOnRemoval(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2})
	h := d.Register()
	dead := drainRemovedChain(t, d, h, 60)
	for _, nd := range dead {
		hops := 0
		cur := nd
		for d.resolve(cur.id) == nil {
			esc := cur.escape.Load()
			if esc == nil {
				t.Fatalf("unregistered node %d has nil escape", cur.id)
			}
			cur = esc
			hops++
			if hops > len(dead)+2 {
				t.Fatalf("escape chain from node %d does not terminate", nd.id)
			}
		}
	}
}

// TestOracleSurvivesConcurrentRemovalChurn keeps one goroutine planting
// stale hints while others operate; nothing may wedge.
func TestOracleSurvivesConcurrentRemovalChurn(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 8})
	h := d.Register()
	dead := drainRemovedChain(t, d, h, 40)

	stop := make(chan struct{})
	go func() { // hint saboteur
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			nd := dead[i%len(dead)]
			d.hint[obs.SideLeft].nd.Store(nd)
			d.hint[obs.SideRight].nd.Store(nd)
			i++
		}
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h2 := d.Register()
		for i := 0; i < 5000; i++ {
			d.PushLeft(h2, uint32(i))
			d.PopRight(h2)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("operations wedged under stale-hint churn")
	}
	close(stop)
}

// TestEscapeFromSemantics pins the escape protocol: restart when the hint
// word moved, follow the chain when it has not, and compress paths through
// dead targets.
func TestEscapeFromSemantics(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2})
	h := d.Register()
	dead := drainRemovedChain(t, d, h, 40)
	if len(dead) < 3 {
		t.Skipf("only %d removed nodes staged", len(dead))
	}
	hintW := d.hint[obs.SideLeft].w.Load()

	// Unchanged hint word: escape is followed.
	next, restart := d.escapeFrom(&d.hint[obs.SideLeft], hintW, dead[0])
	if restart || next == nil {
		t.Fatalf("escapeFrom = (%v, restart=%v), want chain-follow", next, restart)
	}

	// Changed hint word: restart wins.
	if _, restart := d.escapeFrom(&d.hint[obs.SideLeft], hintW+1, dead[0]); !restart {
		t.Fatal("escapeFrom did not restart on a moved hint")
	}

	// Live node with nil escape: restart (a stale link on a live node is
	// repaired by rescanning from the hint).
	live, _ := d.hint[obs.SideLeft].get()
	if _, restart := d.escapeFrom(&d.hint[obs.SideLeft], hintW, live); !restart {
		t.Fatal("escapeFrom on a live node did not restart")
	}
}

// TestEscapePathCompression verifies repeated walks shorten dead chains.
func TestEscapePathCompression(t *testing.T) {
	d := New(Config{NodeSize: MinNodeSize, MaxThreads: 2})
	h := d.Register()
	dead := drainRemovedChain(t, d, h, 60)
	if len(dead) < 6 {
		t.Skipf("only %d removed nodes staged", len(dead))
	}
	hintW := d.hint[obs.SideLeft].w.Load()
	oldest := dead[0]

	// Walk the chain from the oldest dead node repeatedly; measure hops to
	// a live node each time. Compression must make later walks no longer
	// (and typically much shorter) than the first.
	hops := func() int {
		n := 0
		cur := oldest
		for d.resolve(cur.id) == nil {
			next, restart := d.escapeFrom(&d.hint[obs.SideLeft], hintW, cur)
			if restart {
				t.Fatal("unexpected restart on static chain")
			}
			cur = next
			n++
			if n > len(dead)+5 {
				t.Fatal("escape chain does not terminate")
			}
		}
		return n
	}
	first := hops()
	for i := 0; i < 8; i++ {
		hops()
	}
	last := hops()
	if last > first {
		t.Fatalf("path compression regressed: first walk %d hops, later walk %d", first, last)
	}
	if first > 2 && last == first {
		t.Fatalf("no compression observed: first %d hops, later still %d", first, last)
	}
}
