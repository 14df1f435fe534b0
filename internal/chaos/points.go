// Package chaos is a deterministic fault-injection layer for the deque's
// lock-free hot paths. Every structurally interesting moment in the
// algorithm — each transition's first CAS (L1–L7), each empty check's
// re-read (E1–E3), the global hint publish (H), each oracle walk step, each
// edge-cache read, and each slab/registry allocation — calls chaos.Visit
// with a named injection Point before acting.
//
// The package has two build personalities:
//
//   - Default build (no tag): Visit and Enabled are constant-foldable no-op
//     stubs; the compiler inlines them away and the production hot path pays
//     nothing. Arm/Disarm exist but are inert.
//
//   - `-tags chaos`: Visit consults the globally armed *Schedule, which can
//     force the visited action to fail (a lost CAS race, a stale re-read, a
//     refused allocation), inject a bounded busy delay, or park the visiting
//     goroutine until the schedule is released — all deterministically
//     seeded, with per-point visit/fire counters for asserting coverage.
//
// A forced failure is always *semantically legal*: it makes the caller take
// exactly the path it would take if a concurrent thread had won the race.
// Chaos schedules therefore explore real interleavings, never impossible
// states; any invariant violation they surface is a genuine bug.
package chaos

// Point names one injection site class. Transition points use the paper's
// left-side labels for both sides: the right-side code is a mirror, and a
// schedule that targets L1 fires on interior pushes at either end.
type Point uint8

const (
	// L1 is the interior push (bump in-slot, write datum to out-slot).
	L1 Point = iota
	// L2 is the interior pop (bump out-slot, clear in-slot to null).
	L2
	// L3 is the straddling push into the neighbor's innermost data slot.
	L3
	// L4 is the boundary pop from a node's outermost data slot.
	L4
	// L5 seals an empty neighbor (LS/RS into its innermost data slot).
	L5
	// L6 appends a fresh node at a boundary edge.
	L6
	// L7 removes a sealed neighbor from the chain.
	L7
	// E1 is the interior empty check's confirming re-read.
	E1
	// E2 is the straddling empty check's confirming re-read.
	E2
	// E3 is the boundary empty check's confirming re-read.
	E3
	// H is the global side-hint publish CAS.
	H
	// Oracle is one hop of an oracle walk (forced failure restarts the
	// walk from a fresh global hint).
	Oracle
	// EdgeCache is a per-handle edge-cache read (forced failure is a
	// cache miss: the operation runs the real oracle).
	EdgeCache
	// SlabAlloc is a value-slab handle allocation (forced failure surfaces
	// as ErrSlabFull / ErrFull).
	SlabAlloc
	// RegistryAlloc is a node-registry ID allocation (forced failure
	// surfaces as ErrRegistryFull / ErrFull).
	RegistryAlloc
	// Retire is the hand-off of a removed node to the reclamation domain
	// (forced failure defers the retire to the handle's next drain, exactly
	// as if the grace period had not yet expired).
	Retire
	// PoolGet is a node-pool reuse attempt (forced failure is a pool miss:
	// the caller falls back to a fresh allocation).
	PoolGet

	// NumPoints is the number of named injection points.
	NumPoints
)

var pointNames = [NumPoints]string{
	"L1", "L2", "L3", "L4", "L5", "L6", "L7",
	"E1", "E2", "E3", "H",
	"Oracle", "EdgeCache", "SlabAlloc", "RegistryAlloc",
	"Retire", "PoolGet",
}

// String returns the point's name as used in schedules, tests, and docs.
func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return "Point(?)"
}

// TransitionPoints lists the transition-CAS points L1–L7, in order — the
// set the obstruction-freedom suite parks on.
func TransitionPoints() []Point {
	return []Point{L1, L2, L3, L4, L5, L6, L7}
}

// AllPoints lists every named injection point, in order.
func AllPoints() []Point {
	ps := make([]Point, NumPoints)
	for i := range ps {
		ps[i] = Point(i)
	}
	return ps
}
