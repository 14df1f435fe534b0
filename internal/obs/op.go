package obs

// Op and Side name an operation for the flight recorder and the latency
// classes; DiffMask turns two snapshots of a handle's counter block into
// the set of counters that advanced between them, which is how a flight
// record tells which transitions a stalled op kept attempting without
// threading state through the transition functions.

// Op is an operation kind.
type Op uint8

const (
	// OpPush is a push (left or right).
	OpPush Op = iota
	// OpPop is a pop (left or right).
	OpPop
)

// String returns "push" or "pop".
func (o Op) String() string {
	if o == OpPush {
		return "push"
	}
	return "pop"
}

// Side is the deque end an operation worked.
type Side uint8

const (
	// SideLeft is the left end.
	SideLeft Side = iota
	// SideRight is the right end.
	SideRight
)

// String returns "left" or "right".
func (s Side) String() string {
	if s == SideLeft {
		return "left"
	}
	return "right"
}

// DiffMask converts a before/after counter-block pair into a transition
// bitmask: bit i is set when Counter(i) advanced.
func DiffMask(before, after [NumCounters]uint64) uint32 {
	var m uint32
	for i := range before {
		if after[i] != before[i] {
			m |= 1 << uint32(i)
		}
	}
	return m
}
