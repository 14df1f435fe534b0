package deque

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/word"
)

// This file is the package's single source of truth for its error contract.
//
// # Error contract
//
// Every fallible operation reports failure through exactly one of the four
// sentinels below, and every returned error satisfies errors.Is against its
// sentinel (the core package's sentinels are re-exported here by alias, so
// errors escaping from internal layers still match). The Ctx variants may
// additionally return the context's own error (context.Canceled,
// context.DeadlineExceeded) verbatim.
//
//   - ErrFull: a capacity limit was hit — the value slab of a Deque[T]
//     (WithCapacity), the node-memory bound (WithMemoryLimit) or the
//     internal node-ID registry (WithRegistryLimit). The operation had no
//     effect; for batch pushes the returned count says how much of the
//     prefix landed. The deque remains fully usable, and pops can make
//     room.
//
//   - ErrContended: a bounded Try* operation spent its whole attempt budget
//     losing races to other threads. Nothing happened; retrying later is
//     always legal. This is the obstruction-freedom tax surfacing as an
//     error instead of unbounded spinning.
//
//   - ErrReserved: a Uint32 push of a value above MaxUint32Value (the four
//     top values encode the paper's LN/RN/LS/RS slot markers). Deque[T]
//     callers never see it — slab handles stay below the reserved range.
//
//   - ErrBadOption: New/NewUint32's functional options were contradictory
//     or out of range. Returned (wrapped, with the offending value in the
//     message) by NewChecked/NewUint32Checked; the unchecked constructors
//     panic with it instead. Construction-time only, never from operations.
//
// All four are distinct: no returned error matches two sentinels.

// ErrFull reports that a push hit a capacity limit. It has three sources:
// the value slab of a Deque[T] is full (WithCapacity), the node structures
// retained reach the memory bound (WithMemoryLimit), or the internal node
// registry's ID space is spent and the recycling pool is empty
// (WithRegistryLimit). The message is the same for all three. The failed
// push had no effect, and pops can make room: removed nodes return to the
// pool with their IDs.
var ErrFull = core.ErrFull

// ErrContended reports that a bounded Try* operation exhausted its attempt
// budget without completing; the deque is intact and retrying is legal.
var ErrContended = core.ErrContended

// ErrReserved is returned by Uint32 pushes of values above MaxUint32Value.
var ErrReserved = core.ErrReserved

// ErrBadOption reports an invalid construction option (non-power-of-two or
// too-small WithNodeSize, non-positive WithMaxThreads, WithCapacity
// outside [1, MaxUint32Value+1], negative WithLatencySample rate). Errors
// returned by NewChecked and NewUint32Checked wrap it; match with
// errors.Is(err, ErrBadOption).
var ErrBadOption = errors.New("deque: invalid option")

// validate applies the construction-time option contract. Only knobs the
// caller explicitly set are checked (the *Set flags), so defaults are never
// re-validated here — core.New enforces its own invariants on them.
func (o options) validate() error {
	if o.nodeSizeSet && (o.nodeSize < core.MinNodeSize || o.nodeSize&(o.nodeSize-1) != 0) {
		return fmt.Errorf("%w: WithNodeSize(%d) must be a power of two >= %d",
			ErrBadOption, o.nodeSize, core.MinNodeSize)
	}
	if o.maxThreadsSet && o.maxThreads <= 0 {
		return fmt.Errorf("%w: WithMaxThreads(%d) must be positive", ErrBadOption, o.maxThreads)
	}
	// Slab handles ride the 32-bit slots, so at most word.MaxValue+1 of
	// them exist.
	const maxCapacity = uint64(word.MaxValue) + 1
	if o.capacitySet && (o.capacity <= 0 || uint64(o.capacity) > maxCapacity) {
		return fmt.Errorf("%w: WithCapacity(%d) must be in [1, %d]", ErrBadOption, o.capacity, maxCapacity)
	}
	if o.registrySet && (o.registryLimit <= 0 || uint64(o.registryLimit) > (1<<32)-1) {
		return fmt.Errorf("%w: WithRegistryLimit(%d) must be a positive uint32", ErrBadOption, o.registryLimit)
	}
	if o.latSampleSet && o.latSample < 0 {
		return fmt.Errorf("%w: WithLatencySample(%d) must be non-negative", ErrBadOption, o.latSample)
	}
	if o.memLimitSet && o.nodeBudget() < 2 {
		return fmt.Errorf("%w: WithMemoryLimit(%d) admits fewer than 2 nodes of %d bytes each",
			ErrBadOption, o.memLimit, core.NodeFootprint(o.effectiveNodeSize()))
	}
	return nil
}
