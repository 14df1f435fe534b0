// Package hazard implements Michael-style hazard pointers over 64-bit keys.
//
// The paper (Section II-C) retires unlinked deque nodes onto thread-local
// retirement lists and uses hazard pointers to track threads that may still
// be traversing toward a retired node through stale hints. In this Go port
// the garbage collector guarantees memory safety, so what hazard pointers
// gate is the *registry entry* for a node ID: a retired node's ID is only
// cleared from the arena registry (making it unreachable and collectible)
// once no thread advertises it. This reproduces the paper's reclamation
// structure and its costs while letting the GC do the final free.
//
// Keys are opaque uint64s (node IDs in practice); key 0 is reserved to mean
// "no hazard". A Domain owns a fixed set of participant slots; each worker
// registers a Participant and gets SlotsPerParticipant hazard slots plus a
// private retirement list.
package hazard

import (
	"fmt"
	"sync/atomic"
)

// SlotsPerParticipant is the number of hazard slots each participant owns.
// The deque's oracle needs one for the node being traversed and one for a
// neighbor it is about to follow.
const SlotsPerParticipant = 2

// scanThresholdFactor scales the retirement-list length that triggers a
// scan: lists scan when they exceed factor × (participants × slots), the
// classic amortization that makes reclamation O(1) amortized per retire.
const scanThresholdFactor = 2

// Domain is a hazard-pointer domain. All participants protecting and
// retiring the same class of objects must share a Domain.
type Domain struct {
	maxParticipants int
	hazards         []paddedU64
	registered      atomic.Int32
	// freeFn is invoked outside all hazard windows to actually release the
	// object behind a key (for the deque: clear the registry entry).
	freeFn func(key uint64)
}

// paddedU64 avoids false sharing between adjacent participants' slots.
type paddedU64 struct {
	v atomic.Uint64
	_ [7]uint64
}

// NewDomain returns a Domain for up to maxParticipants participants whose
// retired keys are released with freeFn.
func NewDomain(maxParticipants int, freeFn func(key uint64)) *Domain {
	if maxParticipants <= 0 {
		panic("hazard: need at least one participant")
	}
	if freeFn == nil {
		panic("hazard: nil freeFn")
	}
	return &Domain{
		maxParticipants: maxParticipants,
		hazards:         make([]paddedU64, maxParticipants*SlotsPerParticipant),
		freeFn:          freeFn,
	}
}

// Register allocates a Participant. It panics when the domain is full.
func (d *Domain) Register() *Participant {
	n := d.registered.Add(1)
	if int(n) > d.maxParticipants {
		panic(fmt.Sprintf("hazard: more than %d participants", d.maxParticipants))
	}
	return &Participant{d: d, base: int(n-1) * SlotsPerParticipant}
}

// Snapshot collects the set of currently advertised keys. The map is a fresh
// copy; by the time it is returned some hazards may have changed, which is
// safe for the standard reason: a key retired before the snapshot began
// cannot gain new hazards (it is unreachable), so absence from the snapshot
// proves no reader holds it.
func (d *Domain) Snapshot() map[uint64]struct{} {
	n := int(d.registered.Load()) * SlotsPerParticipant
	set := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		if k := d.hazards[i].v.Load(); k != 0 {
			set[k] = struct{}{}
		}
	}
	return set
}

func (d *Domain) scanThreshold() int {
	t := scanThresholdFactor * int(d.registered.Load()) * SlotsPerParticipant
	if t < 8 {
		t = 8
	}
	return t
}

// Participant is one worker's view of a Domain: its hazard slots and its
// retirement list. A Participant is not safe for concurrent use.
type Participant struct {
	d       *Domain
	base    int
	retired []uint64
	// Retires and Freed count reclamation traffic for tests and stats.
	Retires uint64
	Freed   uint64
}

// Protect advertises key in the participant's slot (0 <= slot <
// SlotsPerParticipant) and returns key for convenient chaining.
//
// The usual validation protocol applies: load the key from the shared
// structure, Protect it, then re-verify the key is still reachable before
// dereferencing state obtained through it.
//
// A slot that already holds key is left alone. Only the owner writes its
// slots, so the earlier store of key precedes the caller's validation load
// exactly as a fresh store would; skipping it saves a sequentially
// consistent store on the common path, where an operation re-guards the
// edge node its previous one advertised.
func (p *Participant) Protect(slot int, key uint64) uint64 {
	if h := &p.d.hazards[p.base+slot].v; h.Load() != key {
		h.Store(key)
	}
	return key
}

// Clear removes the advertisement in slot.
func (p *Participant) Clear(slot int) {
	p.d.hazards[p.base+slot].v.Store(0)
}

// ClearAll removes all of the participant's advertisements.
func (p *Participant) ClearAll() {
	for i := 0; i < SlotsPerParticipant; i++ {
		p.d.hazards[p.base+i].v.Store(0)
	}
}

// Retire adds key to the participant's retirement list, scanning and
// releasing unprotected keys when the list grows past the domain threshold.
func (p *Participant) Retire(key uint64) {
	if key == 0 {
		panic("hazard: Retire of reserved key 0")
	}
	p.retired = append(p.retired, key)
	p.Retires++
	if len(p.retired) >= p.d.scanThreshold() {
		p.scan()
	}
}

// scan releases every retired key not currently advertised by any
// participant, keeping the rest for the next scan.
func (p *Participant) scan() {
	live := p.d.Snapshot()
	kept := p.retired[:0]
	for _, k := range p.retired {
		if _, hazardous := live[k]; hazardous {
			kept = append(kept, k)
		} else {
			p.d.freeFn(k)
			p.Freed++
		}
	}
	p.retired = kept
}

// Drain forces a scan regardless of list length. Keys still protected by
// other participants remain on the list; callers that need everything freed
// (tests, shutdown) must quiesce other participants first.
func (p *Participant) Drain() { p.scan() }

// Pending returns the number of retired-but-not-yet-freed keys.
func (p *Participant) Pending() int { return len(p.retired) }
