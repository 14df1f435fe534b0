// Package arena provides the two allocation substrates the unbounded deque
// needs because its slots are 64-bit CAS words holding 32-bit payloads:
//
//   - Registry[T]: maps dense 32-bit IDs to *T. The paper stores 32-bit node
//     pointers inside link slots; in Go we store 32-bit node IDs and resolve
//     them here. IDs are allocated monotonically and an ID is never issued to
//     a second object: a recycled node (NodePool + Reinstall) keeps its ID
//     for the registry's lifetime, and the ID of a node that is dropped is
//     never used again — either way a slot counter plus that binding rules
//     out cross-object ABA. Clearing an entry (after the
//     reclamation domain says no reader can still need it) releases the node
//     to the pool or the garbage collector; a stale ID then resolves to nil,
//     which readers treat as "hint went stale, retry".
//
//   - Slab[T]: a free-listed store mapping 32-bit handles to values of any
//     type T, used by the generic Deque[T] wrapper to funnel arbitrary
//     payloads through the core's 32-bit data slots. Handles are recycled;
//     a tagged Treiber free list prevents ABA.
//
// Both structures are lock-free and grow in chunks installed with CAS.
package arena

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/chaos"
)

// ErrRegistryFull reports that every ID the registry will ever issue has
// been allocated. The registry never re-issues an ID, so — unlike
// ErrSlabFull — this condition is permanent for the registry's lifetime;
// callers that recycle objects with their IDs can keep going.
var ErrRegistryFull = errors.New("arena: registry ID space exhausted")

// Registry chunk geometry: 8192 entries per chunk keeps each chunk at 64 KiB
// of pointers while the fixed directory stays small.
const (
	regChunkBits = 13
	regChunkSize = 1 << regChunkBits
	regChunkMask = regChunkSize - 1
)

// Registry maps monotonically allocated uint32 IDs to *T. It is safe for
// concurrent use. IDs are never reused; Clear releases the referent.
type Registry[T any] struct {
	chunks []atomic.Pointer[regChunk[T]]
	next   atomic.Uint32
	freed  atomic.Uint32
	limit  uint32
}

type regChunk[T any] struct {
	entries [regChunkSize]atomic.Pointer[T]
}

// NewRegistry returns a Registry that can hold up to limit live-or-dead IDs.
// limit is rounded up to a whole number of chunks. The paper's deque
// allocates one node per ~SZ pushes that cross a boundary, so even modest
// limits cover enormous operation counts; the benchmarks use 1<<26.
func NewRegistry[T any](limit uint32) *Registry[T] {
	if limit == 0 {
		panic("arena: NewRegistry with zero limit")
	}
	nChunks := (uint64(limit) + regChunkSize - 1) / regChunkSize
	return &Registry[T]{
		chunks: make([]atomic.Pointer[regChunk[T]], nChunks),
		limit:  uint32(nChunks * regChunkSize),
	}
}

// Limit returns the maximum number of IDs this registry can ever allocate.
func (r *Registry[T]) Limit() uint32 { return r.limit }

// Allocated returns the number of IDs allocated so far. IDs are never
// reused, so this doubles as the lifetime allocation high-water mark.
func (r *Registry[T]) Allocated() uint32 { return r.next.Load() }

// Freed returns the number of entries cleared so far, so Allocated() -
// Freed() is the current live-entry count. Feeds the observability layer's
// occupancy gauges.
func (r *Registry[T]) Freed() uint32 { return r.freed.Load() }

// Alloc registers v and returns its fresh ID. It panics if the ID space is
// exhausted; use TryAlloc to observe ErrRegistryFull instead.
func (r *Registry[T]) Alloc(v *T) uint32 {
	id, err := r.TryAlloc(v)
	if err != nil {
		panic(fmt.Sprintf("arena: %v (limit %d)", err, r.limit))
	}
	return id
}

// TryAlloc registers v and returns its fresh ID, or ErrRegistryFull when
// the ID space is exhausted. The cursor advances by CAS, never blind Add:
// racing allocations at the limit must not burn IDs past it — with a blind
// Add, persistent retries against a full registry would march the cursor
// toward uint32 wraparound and eventually re-issue ID 0, resurrecting ABA.
func (r *Registry[T]) TryAlloc(v *T) (uint32, error) {
	if v == nil {
		panic("arena: Alloc(nil)")
	}
	if chaos.Visit(chaos.RegistryAlloc) {
		return 0, ErrRegistryFull
	}
	for {
		id := r.next.Load()
		if id >= r.limit {
			return 0, ErrRegistryFull
		}
		if r.next.CompareAndSwap(id, id+1) {
			r.chunk(id).entries[id&regChunkMask].Store(v)
			return id, nil
		}
	}
}

// Get resolves id to its registered pointer, or nil if the entry was cleared
// or never published. Get never panics on in-range IDs; out-of-range IDs
// (impossible for IDs produced by Alloc) panic via the slice bounds check.
func (r *Registry[T]) Get(id uint32) *T {
	c := r.chunks[id>>regChunkBits].Load()
	if c == nil {
		return nil
	}
	return c.entries[id&regChunkMask].Load()
}

// Clear removes the entry for id, releasing the referent to the garbage
// collector. Clearing an already-cleared ID is a no-op. The Swap keeps the
// freed count exact when racing removers clear the same ID: only the one
// that observed a non-nil entry counts it.
func (r *Registry[T]) Clear(id uint32) {
	c := r.chunks[id>>regChunkBits].Load()
	if c != nil && c.entries[id&regChunkMask].Swap(nil) != nil {
		r.freed.Add(1)
	}
}

// Reinstall republishes v under an ID that was previously allocated and
// then cleared — the node-recycling path, where a pooled node keeps its
// original ID for its whole lifetime and rejoins the registry only after
// the link CAS that makes it reachable again has committed. Reinstalling
// over a still-live entry would alias two nodes under one ID; the CAS from
// nil makes that a detectable failure instead of a corruption. The freed
// count is decremented so Allocated()-Freed() stays the live-entry count.
func (r *Registry[T]) Reinstall(id uint32, v *T) bool {
	if v == nil {
		panic("arena: Reinstall(nil)")
	}
	if id >= r.next.Load() {
		panic("arena: Reinstall of never-allocated ID")
	}
	if !r.chunk(id).entries[id&regChunkMask].CompareAndSwap(nil, v) {
		return false
	}
	r.freed.Add(^uint32(0))
	return true
}

// chunk returns the chunk containing id, installing it if necessary.
func (r *Registry[T]) chunk(id uint32) *regChunk[T] {
	slot := &r.chunks[id>>regChunkBits]
	c := slot.Load()
	if c != nil {
		return c
	}
	fresh := new(regChunk[T])
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}
