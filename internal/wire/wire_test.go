package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"

	"repro/internal/core"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Tag: 0, Op: OpPing},
		{Tag: 7, Op: OpLen},
		{Tag: 1, Op: OpPush, Side: Left, Key: 42, Count: 1, Values: []uint32{0xDEADBEEF}},
		{Tag: 2, Op: OpPop, Side: Right, Key: ^uint64(0)},
		{Tag: 3, Op: OpPushN, Side: Right, Key: 9, Count: 3, Values: []uint32{1, 2, 3}},
		{Tag: 4, Op: OpPopN, Side: Left, Key: 0, Count: 128},
	}
	var stream []byte
	for i := range reqs {
		stream = AppendRequest(stream, &reqs[i])
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var got Request
	var scratch []byte
	for i := range reqs {
		var err error
		scratch, err = ReadRequest(br, &got, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := reqs[i]
		if got.Tag != want.Tag || got.Op != want.Op || got.Side != want.Side ||
			got.Key != want.Key || got.Count != want.Count || len(got.Values) != len(want.Values) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		for j := range want.Values {
			if got.Values[j] != want.Values[j] {
				t.Fatalf("frame %d value %d: got %d, want %d", i, j, got.Values[j], want.Values[j])
			}
		}
		if st := got.Validate(); st != StatusOK {
			t.Fatalf("frame %d: Validate = %d", i, st)
		}
	}
	if _, err := ReadRequest(br, &got, scratch); err != io.EOF {
		t.Fatalf("after stream: err = %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Tag: 1, Status: StatusOK, Count: 2, Values: []uint32{10, 20}},
		{Tag: 2, Status: StatusEmpty},
		{Tag: 3, Status: StatusFull, Count: 5},
		{Tag: 4, Status: StatusContended},
	}
	var stream []byte
	for i := range resps {
		stream = AppendResponse(stream, &resps[i])
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var got Response
	var scratch []byte
	for i := range resps {
		var err error
		scratch, err = ReadResponse(br, &got, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := resps[i]
		if got.Tag != want.Tag || got.Status != want.Status || got.Count != want.Count ||
			len(got.Values) != len(want.Values) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestTruncatedAndOversizedFrames(t *testing.T) {
	full := AppendRequest(nil, &Request{Op: OpPushN, Side: Left, Count: 2, Values: []uint32{1, 2}})
	// Every strict non-empty prefix — a partial length prefix or a partial
	// body — must yield ErrUnexpectedEOF, never a hang or a bogus decode.
	for cut := 1; cut < len(full); cut++ {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		var req Request
		_, err := ReadRequest(br, &req, nil)
		if err == nil {
			t.Fatalf("cut=%d: decode succeeded", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut=%d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// Oversized length prefix is rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	br := bufio.NewReader(bytes.NewReader(huge))
	var req Request
	if _, err := ReadRequest(br, &req, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized frame: err = %v, want ErrFrame", err)
	}
}

// Reading a frame must not allocate once the caller's scratch buffers
// have grown: the server and the client read one frame per request.
func TestReadFramesDoNotAllocate(t *testing.T) {
	const frames = 64
	var reqStream, respStream []byte
	for i := 0; i < frames; i++ {
		reqStream = AppendRequest(reqStream, &Request{Tag: uint32(i), Op: OpPush, Side: Left, Count: 1, Values: []uint32{uint32(i)}})
		respStream = AppendResponse(respStream, &Response{Tag: uint32(i), Status: StatusOK, Count: 1, Values: []uint32{uint32(i)}})
	}
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var (
		req     Request
		resp    Response
		scratch []byte
		err     error
	)
	readAll := func(stream []byte, read func() error) {
		rd.Reset(stream)
		br.Reset(rd)
		for i := 0; i < frames; i++ {
			if err = read(); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
	}
	readReq := func() error { scratch, err = ReadRequest(br, &req, scratch); return err }
	readResp := func() error { scratch, err = ReadResponse(br, &resp, scratch); return err }
	readAll(reqStream, readReq) // grow scratch and req.Values once
	if n := testing.AllocsPerRun(20, func() { readAll(reqStream, readReq) }); n != 0 {
		t.Fatalf("ReadRequest: %v allocs per %d frames, want 0", n, frames)
	}
	readAll(respStream, readResp)
	if n := testing.AllocsPerRun(20, func() { readAll(respStream, readResp) }); n != 0 {
		t.Fatalf("ReadResponse: %v allocs per %d frames, want 0", n, frames)
	}
}

func TestValidateRejections(t *testing.T) {
	bad := []Request{
		{Op: 0},                // unknown op
		{Op: OpDepq + 1},       // unknown op past the DEPQ family
		{Op: 0xFF},             // unknown op, far out
		{Op: OpPush, Side: 9},  // bad side
		{Op: OpPush, Count: 1}, // push with no value
		{Op: OpPush, Count: 2, Values: []uint32{1, 2}}, // push with 2
		{Op: OpPop, Values: []uint32{1}},               // pop with payload
		{Op: OpPushN, Count: 0},                        // empty batch
		{Op: OpPushN, Count: 2, Values: []uint32{1}},   // count mismatch
		{Op: OpPopN, Count: MaxBatch + 1},              // over batch limit
		{Op: OpPopN, Count: 4, Values: []uint32{1}},    // popN with payload
		{Op: OpLen, Values: []uint32{1}},               // len with payload
		{Op: OpRelax, Values: []uint32{1}},             // relax with payload
		// DEPQ family: payload-less frames reject payloads, counts, and
		// sides — the op names the end, nothing else may ride along.
		{Op: OpPushPrio}, // push with no value
		{Op: OpPushPrio, Count: 1, Values: []uint32{1}, Side: Right}, // wrong side
		{Op: OpPushPrio, Count: 2, Values: []uint32{1, 2}},           // two values
		{Op: OpPopMin, Values: []uint32{1}},                          // payload on payload-less op
		{Op: OpPopMin, Count: 1},                                     // stray count
		{Op: OpPopMin, Side: Right},                                  // stray side
		{Op: OpPopMax, Values: []uint32{7}},                          // payload on payload-less op
		{Op: OpPopMax, Count: 3},                                     // stray count
		{Op: OpDepq, Values: []uint32{1}},                            // payload on snapshot op
		{Op: OpDepq, Side: Right},                                    // stray side
	}
	for i, r := range bad {
		if st := r.Validate(); st != StatusBad {
			t.Fatalf("case %d (%+v): Validate = %d, want StatusBad", i, r, st)
		}
	}
	good := []Request{
		{Op: OpPushPrio, Key: 3, Count: 1, Values: []uint32{42}},
		{Op: OpPopMin},
		{Op: OpPopMax},
		{Op: OpDepq},
	}
	for i, r := range good {
		if st := r.Validate(); st != StatusOK {
			t.Fatalf("good case %d (%+v): Validate = %d, want StatusOK", i, r, st)
		}
	}
}

func TestDEPQRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Tag: 1, Op: OpPushPrio, Key: 7, Count: 1, Values: []uint32{0xCAFE}},
		{Tag: 2, Op: OpPopMin},
		{Tag: 3, Op: OpPopMax},
		{Tag: 4, Op: OpDepq},
	}
	var stream []byte
	for i := range reqs {
		stream = AppendRequest(stream, &reqs[i])
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var got Request
	var scratch []byte
	for i := range reqs {
		var err error
		scratch, err = ReadRequest(br, &got, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := reqs[i]
		if got.Tag != want.Tag || got.Op != want.Op || got.Key != want.Key ||
			got.Count != want.Count || len(got.Values) != len(want.Values) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		if st := got.Validate(); st != StatusOK {
			t.Fatalf("frame %d: Validate = %d", i, st)
		}
	}
}

// depqServer scripts responses for the DEPQ client helpers: pops answer
// [value, band], OpDepq answers the snapshot layout, OpPushPrio echoes
// the given status.
func depqServer(t *testing.T, conn net.Conn, pushStatus uint8) {
	t.Helper()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var req Request
	var scratch, out []byte
	for {
		var err error
		scratch, err = ReadRequest(br, &req, scratch)
		if err != nil {
			return
		}
		resp := Response{Tag: req.Tag, Status: StatusOK}
		switch req.Op {
		case OpPushPrio:
			resp.Status = pushStatus
		case OpPopMin:
			resp.Count = 2
			resp.Values = []uint32{100, 0}
		case OpPopMax:
			resp.Status = StatusEmpty
		case OpDepq:
			resp.Count = 3 // InvMax
			resp.Values = []uint32{2, 8, 2, 750}
		}
		out = AppendResponse(out[:0], &resp)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func TestClientDEPQHelpers(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go depqServer(t, b, StatusOK)

	c := NewClient(a)
	if err := c.PushPrio(3, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	if v, band, ok, err := c.PopMin(); err != nil || !ok || v != 100 || band != 0 {
		t.Fatalf("PopMin = (%d, %d, %v, %v), want (100, 0, true, nil)", v, band, ok, err)
	}
	if _, _, ok, err := c.PopMax(); err != nil || ok {
		t.Fatalf("PopMax on empty = (ok %v, err %v), want (false, nil)", ok, err)
	}
	ds, err := c.Depq()
	if err != nil {
		t.Fatal(err)
	}
	want := DepqStats{InvMax: 3, BandBound: 2, Bands: 8, Choice: 2, MeanMilli: 750}
	if ds != want {
		t.Fatalf("Depq = %+v, want %+v", ds, want)
	}
}

func TestClientPushPrioShed(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go depqServer(t, b, StatusFull)

	c := NewClient(a)
	if err := c.PushPrio(0, 1); !errors.Is(err, core.ErrFull) {
		t.Fatalf("shed PushPrio: err = %v, want ErrFull", err)
	}
}

func TestStatusErrorMapping(t *testing.T) {
	// Status -> error -> status is the identity on the deque contract.
	cases := []struct {
		status uint8
		err    error
	}{
		{StatusOK, nil},
		{StatusFull, core.ErrFull},
		{StatusContended, core.ErrContended},
		{StatusCanceled, context.Canceled},
	}
	for _, c := range cases {
		r := Response{Status: c.status}
		if got := r.Err(); !errors.Is(got, c.err) && !(got == nil && c.err == nil) {
			t.Fatalf("status %d: Err() = %v, want %v", c.status, got, c.err)
		}
		if got := StatusOf(c.err); got != c.status {
			t.Fatalf("StatusOf(%v) = %d, want %d", c.err, got, c.status)
		}
	}
	// Empty maps to no error (emptiness is a result, not a failure).
	r := Response{Status: StatusEmpty}
	if err := r.Err(); err != nil {
		t.Fatalf("StatusEmpty.Err() = %v", err)
	}
	if StatusOf(context.DeadlineExceeded) != StatusCanceled {
		t.Fatal("deadline error must map to StatusCanceled")
	}
}

// echoServer answers each request over p with a response echoing the tag
// and, for pushes, the value count — enough to exercise the client's
// pipelining without a real pool.
func echoServer(t *testing.T, conn net.Conn) {
	t.Helper()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var req Request
	var scratch, out []byte
	for {
		var err error
		scratch, err = ReadRequest(br, &req, scratch)
		if err != nil {
			return
		}
		resp := Response{Tag: req.Tag, Status: StatusOK, Count: uint32(len(req.Values))}
		out = AppendResponse(out[:0], &resp)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

func TestClientPipelining(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go echoServer(t, b)

	c := NewClient(a)
	const depth = 32
	tags := make([]uint32, 0, depth)
	for i := 0; i < depth; i++ {
		tag, err := c.Send(&Request{Op: OpPushN, Side: Left, Count: 2, Values: []uint32{uint32(i), uint32(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		tags = append(tags, tag)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Tag != tags[i] {
			t.Fatalf("recv %d: tag %d, want %d (responses must arrive in send order)", i, resp.Tag, tags[i])
		}
		if resp.Count != 2 {
			t.Fatalf("recv %d: count %d, want 2", i, resp.Count)
		}
	}
}

// relaxServer answers every request as an OpRelax snapshot with the given
// values payload.
func relaxServer(t *testing.T, conn net.Conn, count uint32, values []uint32) {
	t.Helper()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var req Request
	var scratch, out []byte
	for {
		var err error
		scratch, err = ReadRequest(br, &req, scratch)
		if err != nil {
			return
		}
		resp := Response{Tag: req.Tag, Status: StatusOK, Count: count, Values: values}
		out = AppendResponse(out[:0], &resp)
		if _, err := bw.Write(out); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func TestClientRelax(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	// Count carries RankMax; Values carry bound, sample, shards, mean*1000.
	go relaxServer(t, b, 17, []uint32{64, 2, 4, 2500})

	c := NewClient(a)
	rs, err := c.Relax()
	if err != nil {
		t.Fatal(err)
	}
	want := RelaxStats{RankMax: 17, RankBound: 64, Sample: 2, Shards: 4, MeanMilli: 2500}
	if rs != want {
		t.Fatalf("Relax = %+v, want %+v", rs, want)
	}
}

func TestClientRelaxRejectsShortSnapshot(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	go relaxServer(t, b, 1, []uint32{64, 2, 4}) // one gauge short

	c := NewClient(a)
	if _, err := c.Relax(); !errors.Is(err, ErrFrame) {
		t.Fatalf("short snapshot: err = %v, want ErrFrame", err)
	}
}
