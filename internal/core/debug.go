package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/word"
)

// This file provides quiescent-state introspection: tests join all workers,
// then walk the chain and verify the well-formedness invariant of the
// safety proof (Section III-A). None of this is safe to run concurrently
// with operations.

// chain collects the reachable node chain, leftmost first. It starts from
// the left hint's shadow node, walks left through resolvable links, then
// collects rightward.
func (d *Deque) chain() []*node {
	const maxWalk = 1 << 20 // guards diagnostic walks over corrupt states
	sz := d.sz
	nd, _ := d.hint[obs.SideLeft].get()
	// Walk left.
	for i := 0; i < maxWalk; i++ {
		v := word.Val(nd.slots[0].Load())
		if word.IsReserved(v) {
			break
		}
		prev := d.resolve(v)
		if prev == nil {
			break
		}
		nd = prev
	}
	// Collect rightward.
	var out []*node
	for nd != nil && len(out) < maxWalk {
		out = append(out, nd)
		v := word.Val(nd.slots[sz-1].Load())
		if word.IsReserved(v) {
			break
		}
		nd = d.resolve(v)
	}
	return out
}

// Slice returns the deque's contents, left to right. Quiescent use only.
func (d *Deque) Slice() []uint32 {
	var vals []uint32
	for _, n := range d.chain() {
		for i := 1; i < d.sz-1; i++ {
			v := word.Val(n.slots[i].Load())
			if !word.IsReserved(v) {
				vals = append(vals, v)
			}
		}
	}
	return vals
}

// Len returns the number of stored values. Quiescent use only.
func (d *Deque) Len() int { return len(d.Slice()) }

// Nodes returns the number of reachable chain nodes. Quiescent use only.
func (d *Deque) Nodes() int { return len(d.chain()) }

// NodesAllocated returns the number of nodes ever allocated.
func (d *Deque) NodesAllocated() uint32 { return d.reg.Allocated() }

// dumpNode formats one node's slots compactly for failure messages.
func (d *Deque) dumpNode(n *node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d [", n.id)
	for i := 0; i < d.sz; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		w := n.slots[i].Load()
		fmt.Fprintf(&b, "%s/%d", word.Name(word.Val(w)), word.Ct(w))
	}
	b.WriteByte(']')
	return b.String()
}

// Dump formats the whole reachable chain. Quiescent use only.
func (d *Deque) Dump() string {
	var b strings.Builder
	for _, n := range d.chain() {
		b.WriteString(d.dumpNode(n))
		b.WriteByte('\n')
	}
	return b.String()
}

// CheckInvariant verifies the well-formedness invariant from the proof of
// Theorem 1 on the reachable chain:
//
//   - consecutive nodes are doubly linked (a seal-pending node at either
//     end may be singly linked inward);
//   - the flattened data slots form LN* (LS LN*)? data* RN* (RS RN*)?;
//   - link slots hold only nulls or resolvable node IDs.
//
// Quiescent use only; returns a descriptive error on the first violation.
func (d *Deque) CheckInvariant() error {
	sz := d.sz
	ch := d.chain()
	if len(ch) == 0 {
		return fmt.Errorf("core: empty chain")
	}

	// Link structure.
	for i := 0; i < len(ch)-1; i++ {
		a, b := ch[i], ch[i+1]
		av := word.Val(a.slots[sz-1].Load())
		if av != b.id {
			return fmt.Errorf("core: node %d right link %s != next node %d\n%s",
				a.id, word.Name(av), b.id, d.Dump())
		}
		bv := word.Val(b.slots[0].Load())
		if bv != a.id {
			// b does not point back: legal only while a is left-sealed
			// (removal pending) — sealed nodes may be singly linked inward.
			if word.Val(a.slots[sz-2].Load()) != word.LS {
				return fmt.Errorf("core: node %d left link %s does not point back at %d\n%s",
					b.id, word.Name(bv), a.id, d.Dump())
			}
		}
	}

	// Flattened data-slot pattern.
	const (
		phLN = iota
		phLNAfterSeal
		phData
		phRN
		phRNAfterSeal
	)
	phase := phLN
	for _, n := range ch {
		for i := 1; i < sz-1; i++ {
			v := word.Val(n.slots[i].Load())
			switch {
			case v == word.LN:
				if phase == phLNAfterSeal {
					phase = phLN // LN run after a sealed node's LS
				}
				if phase != phLN {
					return fmt.Errorf("core: LN after span started (node %d slot %d)\n%s", n.id, i, d.Dump())
				}
			case v == word.LS:
				// Chains of left-sealed nodes are legal ("another sealed
				// node which has been sealed on the same side").
				if phase != phLN && phase != phLNAfterSeal {
					return fmt.Errorf("core: misplaced LS (node %d slot %d)\n%s", n.id, i, d.Dump())
				}
				if i != sz-2 {
					return fmt.Errorf("core: LS outside innermost data slot (node %d slot %d)\n%s", n.id, i, d.Dump())
				}
				phase = phLNAfterSeal
			case v == word.RN:
				if phase == phRNAfterSeal {
					// RNs after an RS are fine.
				} else {
					phase = phRN
				}
			case v == word.RS:
				// RS may follow data directly (the neighbor was sealed
				// while the span still reached the border) or an RN run;
				// anything after it other than RN/RS is rejected below.
				if i != 1 {
					return fmt.Errorf("core: RS outside innermost data slot (node %d slot %d)\n%s", n.id, i, d.Dump())
				}
				phase = phRNAfterSeal
			default: // datum
				if phase == phRN || phase == phRNAfterSeal {
					return fmt.Errorf("core: datum after RN (node %d slot %d)\n%s", n.id, i, d.Dump())
				}
				phase = phData
			}
		}
	}
	return nil
}
