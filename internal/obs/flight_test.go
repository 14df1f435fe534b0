package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func mkRec(i int, kind FlightKind) FlightRecord {
	return FlightRecord{
		At:     int64(i+1) * int64(time.Second),
		Kind:   kind,
		Op:     OpPush,
		Side:   SideLeft,
		Streak: uint64(i),
		Tid:    i % 4,
	}
}

func TestFlightRingWrap(t *testing.T) {
	const buflen = 8
	f := NewFlight(buflen)
	const n = 3*buflen + 5
	for i := 0; i < n; i++ {
		f.Record(mkRec(i, FlightRecover))
	}
	if f.Total() != n {
		t.Fatalf("Total = %d, want %d", f.Total(), n)
	}
	recs := f.Records()
	if len(recs) != buflen {
		t.Fatalf("retained %d records, want %d", len(recs), buflen)
	}
	// Oldest-first: the ring must hold exactly the last buflen records in
	// recording order.
	for i, r := range recs {
		if want := uint64(n - buflen + i); r.Streak != want {
			t.Fatalf("record %d has streak %d, want %d (not oldest-first)", i, r.Streak, want)
		}
	}
}

func TestFlightDefaultBuf(t *testing.T) {
	f := NewFlight(0)
	for i := 0; i < DefaultFlightBuf+10; i++ {
		f.Record(mkRec(i, FlightRecover))
	}
	if got := len(f.Records()); got != DefaultFlightBuf {
		t.Fatalf("retained %d, want DefaultFlightBuf=%d", got, DefaultFlightBuf)
	}
}

func TestFlightAutoDump(t *testing.T) {
	f := NewFlight(4)
	var sb strings.Builder
	f.SetDump(&sb, time.Second)

	// A recover record never triggers a dump, even armed.
	f.Record(mkRec(0, FlightRecover))
	if sb.Len() != 0 {
		t.Fatalf("recover record dumped:\n%s", sb.String())
	}

	// The first escalation dumps.
	f.Record(mkRec(1, FlightEscalate))
	if !strings.Contains(sb.String(), "flightrecorder: 2 records (2 total)") {
		t.Fatalf("escalate did not dump the ring:\n%s", sb.String())
	}

	// A second escalation inside the rate-limit window is suppressed...
	before := sb.Len()
	r := mkRec(1, FlightEscalate)
	r.At += int64(100 * time.Millisecond)
	f.Record(r)
	if sb.Len() != before {
		t.Fatalf("dump not rate-limited:\n%s", sb.String())
	}

	// ...and one past the window dumps again.
	r = mkRec(3, FlightEscalate)
	r.At += int64(3 * time.Second)
	f.Record(r)
	if sb.Len() == before {
		t.Fatal("dump after the rate-limit window was suppressed")
	}
	if !strings.Contains(sb.String(), "tid=3") {
		t.Fatalf("second dump missing the late escalation:\n%s", sb.String())
	}

	// Disarm: no further dumps.
	f.SetDump(nil, 0)
	before = sb.Len()
	r = mkRec(2, FlightEscalate)
	r.At += int64(10 * time.Second)
	f.Record(r)
	if sb.Len() != before {
		t.Fatal("disarmed recorder still dumped")
	}
}

func TestFlightDumpTo(t *testing.T) {
	f := NewFlight(4)
	f.Record(mkRec(0, FlightEscalate))
	f.Record(mkRec(1, FlightRecover))
	var sb strings.Builder
	if err := f.DumpTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"flightrecorder: 2 records (2 total)", "escalate", "recover", "tid="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("dump missing %q:\n%s", frag, out)
		}
	}
}

func TestFlightRecordTook(t *testing.T) {
	r := FlightRecord{Transitions: 1<<uint32(CtrFailL1) | 1<<uint32(CtrOracleWalk)}
	if !r.Took(CtrFailL1) || !r.Took(CtrOracleWalk) {
		t.Fatal("Took misses set counters")
	}
	if r.Took(CtrElimMiss) {
		t.Fatal("Took reports an unset counter")
	}
	// The rendered record names exactly the counters that advanced.
	s := r.String()
	if !strings.Contains(s, CtrFailL1.String()) || !strings.Contains(s, CtrOracleWalk.String()) {
		t.Fatalf("String() missing transition names: %s", s)
	}
}

// TestFlightRecordDiffMask checks that DiffMask sets exactly the bits of
// the counters that advanced, and that a record carrying the mask names
// them along with its op, side and duration.
func TestFlightRecordDiffMask(t *testing.T) {
	var before, after [NumCounters]uint64
	before[CtrL2], after[CtrL2] = 5, 5
	after[CtrL1] = 1
	after[CtrHintPublish] = 2
	r := FlightRecord{Kind: FlightEscalate, Op: OpPush, Side: SideLeft, Transitions: DiffMask(before, after), Ns: 10}
	if want := uint32(1<<uint32(CtrL1) | 1<<uint32(CtrHintPublish)); r.Transitions != want {
		t.Fatalf("DiffMask = %#x, want %#x", r.Transitions, want)
	}
	if !r.Took(CtrL1) || !r.Took(CtrHintPublish) || r.Took(CtrL2) {
		t.Fatalf("mask wrong: %b", r.Transitions)
	}
	s := r.String()
	for _, want := range []string{"push", "left", "l1", "hint_publish", "10ns"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestFlightKindJSONRoundTrip(t *testing.T) {
	for _, k := range []FlightKind{FlightEscalate, FlightRecover} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + k.String() + `"`; string(b) != want {
			t.Fatalf("Marshal(%v) = %s, want %s", k, b, want)
		}
		var back FlightKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %v", k, back)
		}
	}
	var k FlightKind
	if err := json.Unmarshal([]byte(`"bogus"`), &k); err == nil {
		t.Fatal("unknown kind decoded without error")
	}
}

func TestFlightRecordJSONRoundTrip(t *testing.T) {
	r := FlightRecord{
		At: 12345, Kind: FlightRecover, Op: OpPop, Side: SideRight,
		Transitions: 7, Streak: 512, Escalations: 2, Tid: 3, Ns: 99,
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back FlightRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("round trip %+v -> %+v", r, back)
	}
}
