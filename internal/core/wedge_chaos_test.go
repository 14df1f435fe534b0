//go:build chaos

package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/word"
)

// TestChaosOracleWedgePanics stages the state the 2-CPU oracle wedge left
// behind — an L7 that unlinked a sealed node before storing its escape —
// on each side: the hint names the removed node, which is still
// registered and sealed but no longer linked from its neighbour, and whose
// escape is nil. A walk from there restarts on the same hint word forever.
// The chaos build must turn that into a panic that carries the chain dump,
// not a hang.
func TestChaosOracleWedgePanics(t *testing.T) {
	for _, side := range []string{"left", "right"} {
		t.Run(side, func(t *testing.T) {
			var d *Deque
			var pop func(*Handle) (uint32, bool)
			if side == "left" {
				// A right pop sealed nd1 (RS) and unlinked it from nd0.
				var nd0, nd1 *node
				d, nd0, nd1 = pendingRightSeal(t)
				nd0.slots[d.sz-1].Store(word.Pack(word.RN, 2))
				d.hint[obs.SideLeft].set(d.hint[obs.SideLeft].w.Load(), nd1)
				pop = d.PopLeft
			} else {
				// A left pop sealed nd0 (LS) and unlinked it from nd1.
				var nd0, nd1 *node
				d, nd0, nd1 = pendingLeftSeal(t)
				nd1.slots[0].Store(word.Pack(word.LN, 2))
				d.hint[obs.SideRight].set(d.hint[obs.SideRight].w.Load(), nd0)
				pop = d.PopRight
			}
			h := d.Register()
			got := make(chan any, 1)
			go func() {
				defer func() { got <- recover() }()
				pop(h)
			}()
			select {
			case r := <-got:
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, side+" oracle wedged") || !strings.Contains(msg, "node ") {
					t.Fatalf("recovered %q, want a %s-oracle wedge panic with the chain dump", msg, side)
				}
				t.Log(msg)
			case <-time.After(60 * time.Second):
				t.Fatalf("%s oracle hung instead of panicking on the staged wedge", side)
			}
		})
	}
}
