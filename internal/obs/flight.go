package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// The flight recorder is the deque's black box: a fixed, always-on ring of
// records fed only by rare distress events — watchdog
// escalations and the recoveries that end an escalated streak — so it
// costs the hot path nothing, yet after a production tail-latency
// incident it holds the last N things that went wrong, each with a coarse
// timestamp, the streak length, and the transition-counter mask
// accumulated since the streak began (enough to reconstruct which paper
// transitions the stalled op was failing at). It can be read on
// demand (/debug/flightrecorder in dequed and schedd) and dumps itself
// to a configured writer, rate-limited, whenever an escalation lands.

// FlightKind is the distress event a FlightRecord captures.
type FlightKind uint8

const (
	// FlightEscalate is a livelock-watchdog trip: the handle's consecutive
	// failure streak hit a multiple of the watchdog threshold.
	FlightEscalate FlightKind = iota
	// FlightRecover is the first success after one or more escalations —
	// it closes the streak and records its total span.
	FlightRecover
	numFlightKinds
)

var flightKindNames = [numFlightKinds]string{"escalate", "recover"}

// String returns the kind's name as used in dumps and JSON.
func (k FlightKind) String() string {
	if k < numFlightKinds {
		return flightKindNames[k]
	}
	return "flight(?)"
}

// MarshalJSON encodes the kind as its name.
func (k FlightKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind name.
func (k *FlightKind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for i, n := range flightKindNames {
		if n == s {
			*k = FlightKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown flight kind %q", s)
}

// FlightRecord is one distress event.
type FlightRecord struct {
	// At is the event's wall-clock time (unix nanoseconds; coarse — it
	// orders records across handles, nothing more).
	At int64 `json:"at_unix_ns"`
	// Kind, Op, and Side identify the event and the operation in distress.
	Kind FlightKind `json:"kind"`
	Op   Op         `json:"op"`
	Side Side       `json:"side"`
	// Transitions is a Counter bitmask (see DiffMask): the counters
	// that advanced since the failure streak began — for an escalation,
	// the transition points the op kept losing at. Zero on obsoff builds.
	Transitions uint32 `json:"transitions"`
	// Streak is the handle's consecutive-failure count at the event.
	Streak uint64 `json:"streak"`
	// Escalations is the handle's lifetime escalation count at the event.
	Escalations uint64 `json:"escalations,omitempty"`
	// Tid is the handle's registration slot.
	Tid int `json:"tid"`
	// Ns is the time since the streak began (0 when unknown).
	Ns int64 `json:"ns,omitempty"`
}

// Took reports whether counter c advanced during the record's streak.
func (r FlightRecord) Took(c Counter) bool { return r.Transitions&(1<<uint32(c)) != 0 }

// String renders the record compactly, e.g.
// "14:02:07.123 escalate push left tid=3 streak=256 [fail_l1 oracle_walk] 1.2ms".
func (r FlightRecord) String() string {
	var names []string
	for c := Counter(0); c < NumCounters; c++ {
		if r.Took(c) {
			names = append(names, c.String())
		}
	}
	return fmt.Sprintf("%s %s %s %s tid=%d streak=%d [%s] %s",
		time.Unix(0, r.At).Format("15:04:05.000"), r.Kind, r.Op, r.Side,
		r.Tid, r.Streak, strings.Join(names, " "), time.Duration(r.Ns))
}

// DefaultFlightBuf is the ring length used when the caller passes 0.
const DefaultFlightBuf = 256

// DefaultFlightDumpInterval is the auto-dump rate limit used when the
// caller passes 0 to SetDump.
const DefaultFlightDumpInterval = time.Second

// Flight is the fixed-size distress-event ring, safe for concurrent
// recording. Records are overwritten oldest-first once the ring is full.
type Flight struct {
	mu    sync.Mutex
	buf   []FlightRecord
	next  int
	total uint64

	dumpW     io.Writer
	dumpEvery time.Duration
	lastDump  int64 // unix ns of the last auto-dump
}

// NewFlight returns a recorder keeping the last buflen records.
func NewFlight(buflen int) *Flight {
	if buflen <= 0 {
		buflen = DefaultFlightBuf
	}
	return &Flight{buf: make([]FlightRecord, 0, buflen)}
}

// SetDump arms automatic dumps: every escalation record renders the whole
// ring to w, rate-limited to one dump per minInterval (0 =
// DefaultFlightDumpInterval). A nil w disarms.
func (f *Flight) SetDump(w io.Writer, minInterval time.Duration) {
	if minInterval <= 0 {
		minInterval = DefaultFlightDumpInterval
	}
	f.mu.Lock()
	f.dumpW = w
	f.dumpEvery = minInterval
	f.lastDump = 0
	f.mu.Unlock()
}

// Record appends r to the ring and, when a dump writer is armed and r is
// an escalation, dumps the ring (outside the lock, rate limited).
func (f *Flight) Record(r FlightRecord) {
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, r)
	} else {
		f.buf[f.next] = r
		f.next = (f.next + 1) % cap(f.buf)
	}
	f.total++
	var dumpW io.Writer
	var recs []FlightRecord
	var total uint64
	if f.dumpW != nil && r.Kind != FlightRecover && r.At-f.lastDump >= int64(f.dumpEvery) {
		f.lastDump = r.At
		dumpW = f.dumpW
		recs = f.recordsLocked()
		total = f.total
	}
	f.mu.Unlock()
	if dumpW != nil {
		WriteFlightDump(dumpW, recs, total)
	}
}

// Total returns the number of records ever written (including overwritten
// ones).
func (f *Flight) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

func (f *Flight) recordsLocked() []FlightRecord {
	out := make([]FlightRecord, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Records returns a copy of the buffered records, oldest first.
func (f *Flight) Records() []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recordsLocked()
}

// DumpTo renders the ring to w, oldest first (the on-demand form of the
// automatic dump).
func (f *Flight) DumpTo(w io.Writer) error {
	f.mu.Lock()
	recs := f.recordsLocked()
	total := f.total
	f.mu.Unlock()
	return WriteFlightDump(w, recs, total)
}

// WriteFlightDump renders recs, oldest first, in the dump format: a
// header line with the retained and total counts, then one record a line.
func WriteFlightDump(w io.Writer, recs []FlightRecord, total uint64) error {
	bw := &errWriter{w: w}
	fmt.Fprintf(bw, "flightrecorder: %d records (%d total)\n", len(recs), total)
	for _, r := range recs {
		fmt.Fprintf(bw, "  %s\n", r.String())
	}
	return bw.err
}
