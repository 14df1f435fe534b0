// Package wire is the deque service's binary protocol: compact
// length-prefixed frames carrying deque operations from clients
// (cmd/dqload, tests) to the server (cmd/dequed) over any byte stream.
//
// # Framing
//
// Every frame is a 4-byte big-endian length (of everything after the
// length field) followed by a fixed header and an optional payload of
// 4-byte big-endian uint32 values — the deque's native payload width.
//
//	request:  len:u32 | tag:u32 op:u8 side:u8 key:u64 count:u32 | values…
//	response: len:u32 | tag:u32 status:u8          count:u32 | values…
//
// tag is an opaque client token echoed verbatim in the response, so a
// pipelining client can correlate out of a strictly-ordered stream. key
// is the shard-routing key (KeyAffinity hashes it; other policies ignore
// it). count is the value count for pushes, the requested maximum for
// OpPopN, and the accepted/returned count in responses.
//
// Pipelining is the framing's whole design: requests are processed and
// answered strictly in order per connection, so a client may write any
// number of frames before reading, and the server flushes its write
// buffer only when the read side runs dry.
//
// # Batch mapping
//
// OpPushN/OpPopN map 1:1 onto the PushLeftN/PopRightN family: one frame,
// one batch call, one response carrying the accepted prefix length
// (pushes) or the popped values (pops). StatusFull responses to OpPushN
// carry the accepted count n — exactly the (n, ErrFull) batch contract:
// values[:n] landed, values[n:] had no effect.
//
// # Backpressure
//
// Statuses map 1:1 onto the deque's error contract (package repro
// errors.go): StatusFull is ErrFull (capacity; retry after pops),
// StatusContended is ErrContended (bounded-attempt budget spent),
// StatusCanceled is a server-side context abort (drain hard-stop).
// Status.Err returns the matching sentinel so client code can errors.Is
// against the same values in-process callers use.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
)

// Op codes.
const (
	OpPing     uint8 = iota + 1 // no-op round trip; responds OK
	OpLen                       // exact pool length in response count
	OpPush                      // push values[0] on side
	OpPop                       // pop one value from side
	OpPushN                     // push count values in order on side
	OpPopN                      // pop up to count values from side
	OpRelax                     // observed-relaxation snapshot (see RelaxStats)
	OpStats                     // per-op-class latency snapshot (see OpStat)
	OpPushPrio                  // DEPQ push: values[0] under priority key (see below)
	OpPopMin                    // DEPQ pop from the urgent end; response [value, band]
	OpPopMax                    // DEPQ pop from the shed end; response [value, band]
	OpDepq                      // observed-inversion snapshot (see DepqStats)
)

// DEPQ frame mapping (cmd/schedd). OpPushPrio reuses the routing-key
// field as the priority band — the scheduler routes by priority, so the
// two fields are the same concept — with side pinned to Left (a DEPQ
// admits at each band's left end by construction; any other side is
// StatusBad, not silently ignored). OpPopMin/OpPopMax/OpDepq are
// payload-less AND side-less: the op itself names the end, so a stray
// side, count, or payload means a confused or hostile peer and the frame
// is rejected rather than partially honored. Pop responses carry
// [value, band] with Count 2; StatusFull on OpPushPrio is the
// load-shedding signal (the job was refused admission, nothing landed).

// Sides.
const (
	Left  uint8 = 0
	Right uint8 = 1
)

// Statuses.
const (
	StatusOK        uint8 = 0 // operation applied (pushes: all values)
	StatusEmpty     uint8 = 1 // pop found the pool empty (no values)
	StatusFull      uint8 = 2 // ErrFull: count carries the accepted prefix
	StatusContended uint8 = 3 // ErrContended: nothing happened, retry later
	StatusCanceled  uint8 = 4 // server canceled the op (hard drain)
	StatusBad       uint8 = 5 // malformed but parseable request
	StatusDraining  uint8 = 6 // reserved: server draining (currently unused —
	// a draining server answers everything it reads and closes instead)
)

// Limits. MaxBatch bounds count for batch ops; MaxFrame bounds the whole
// frame and is derived from it (header + MaxBatch values).
const (
	MaxBatch    = 1 << 16
	reqHeader   = 4 + 1 + 1 + 8 + 4 // tag op side key count
	respHeader  = 4 + 1 + 4         // tag status count
	MaxFrame    = reqHeader + 4*MaxBatch
	lenPrefix   = 4
	maxFrameLen = MaxFrame // alias used by readers for clarity
)

// ErrFrame reports a malformed or oversized frame; the connection is no
// longer synchronized and must be closed.
var ErrFrame = errors.New("wire: malformed frame")

// Request is one client->server frame.
type Request struct {
	Tag    uint32
	Op     uint8
	Side   uint8
	Key    uint64
	Count  uint32
	Values []uint32
}

// Response is one server->client frame.
type Response struct {
	Tag    uint32
	Status uint8
	Count  uint32
	Values []uint32
}

// Err maps a response status to the deque's error contract: nil for
// OK/Empty (emptiness is a result, not an error, exactly as in the
// in-process API), the core sentinels for Full/Contended, and descriptive
// errors otherwise.
func (r *Response) Err() error {
	switch r.Status {
	case StatusOK, StatusEmpty:
		return nil
	case StatusFull:
		return core.ErrFull
	case StatusContended:
		return core.ErrContended
	case StatusCanceled:
		return context.Canceled
	case StatusBad:
		return fmt.Errorf("%w: server rejected request", ErrFrame)
	default:
		return fmt.Errorf("wire: unknown status %d", r.Status)
	}
}

// StatusOf maps an operation error to its wire status (the inverse of
// Response.Err): nil is StatusOK, the core sentinels map to their
// statuses, context aborts to StatusCanceled, anything else to StatusBad.
func StatusOf(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrFull):
		return StatusFull
	case errors.Is(err, core.ErrContended):
		return StatusContended
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return StatusCanceled
	default:
		return StatusBad
	}
}

// AppendRequest appends req's frame to dst and returns the extended
// slice. Count is taken from req.Count; for pushes it must equal
// len(req.Values).
func AppendRequest(dst []byte, req *Request) []byte {
	body := reqHeader + 4*len(req.Values)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = binary.BigEndian.AppendUint32(dst, req.Tag)
	dst = append(dst, req.Op, req.Side)
	dst = binary.BigEndian.AppendUint64(dst, req.Key)
	dst = binary.BigEndian.AppendUint32(dst, req.Count)
	for _, v := range req.Values {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return dst
}

// AppendResponse appends resp's frame to dst and returns the extended
// slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	body := respHeader + 4*len(resp.Values)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = binary.BigEndian.AppendUint32(dst, resp.Tag)
	dst = append(dst, resp.Status)
	dst = binary.BigEndian.AppendUint32(dst, resp.Count)
	for _, v := range resp.Values {
		dst = binary.BigEndian.AppendUint32(dst, v)
	}
	return dst
}

// readFrame reads one length-prefixed frame body into buf (grown as
// needed) and returns it. io.EOF before the first length byte is a clean
// end of stream and passes through unchanged; any other truncation is
// io.ErrUnexpectedEOF.
//
// The length prefix is peeked in the reader's own buffer rather than
// copied into a local array: io.ReadFull takes a slice, so the array
// would escape to the heap once per frame.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := br.Peek(lenPrefix)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf, err // io.EOF with no bytes: clean EOF between frames
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = br.Discard(lenPrefix) // cannot fail: Peek just buffered these bytes
	if n > maxFrameLen {
		return buf, fmt.Errorf("%w: frame length %d exceeds %d", ErrFrame, n, maxFrameLen)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	return buf, nil
}

// decodeValues parses count big-endian uint32 values from b into dst
// (reused when large enough).
func decodeValues(dst []uint32, b []byte, count int) ([]uint32, error) {
	if len(b) != 4*count {
		return dst, fmt.Errorf("%w: %d payload bytes for %d values", ErrFrame, len(b), count)
	}
	if cap(dst) < count {
		dst = make([]uint32, count)
	}
	dst = dst[:count]
	for i := 0; i < count; i++ {
		dst[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return dst, nil
}

// ReadRequest reads and decodes the next request frame, reusing req's
// Values capacity and the provided scratch buffer (returned grown). A
// clean EOF between frames returns io.EOF.
func ReadRequest(br *bufio.Reader, req *Request, scratch []byte) ([]byte, error) {
	buf, err := readFrame(br, scratch)
	if err != nil {
		return buf, err
	}
	if len(buf) < reqHeader {
		return buf, fmt.Errorf("%w: request frame of %d bytes", ErrFrame, len(buf))
	}
	req.Tag = binary.BigEndian.Uint32(buf[0:])
	req.Op = buf[4]
	req.Side = buf[5]
	req.Key = binary.BigEndian.Uint64(buf[6:])
	req.Count = binary.BigEndian.Uint32(buf[14:])
	payload := buf[reqHeader:]
	nvals := len(payload) / 4
	req.Values, err = decodeValues(req.Values, payload, nvals)
	return buf, err
}

// ReadResponse reads and decodes the next response frame, reusing resp's
// Values capacity and the provided scratch buffer (returned grown). A
// clean EOF between frames returns io.EOF.
func ReadResponse(br *bufio.Reader, resp *Response, scratch []byte) ([]byte, error) {
	buf, err := readFrame(br, scratch)
	if err != nil {
		return buf, err
	}
	if len(buf) < respHeader {
		return buf, fmt.Errorf("%w: response frame of %d bytes", ErrFrame, len(buf))
	}
	resp.Tag = binary.BigEndian.Uint32(buf[0:])
	resp.Status = buf[4]
	resp.Count = binary.BigEndian.Uint32(buf[5:])
	payload := buf[respHeader:]
	nvals := len(payload) / 4
	resp.Values, err = decodeValues(resp.Values, payload, nvals)
	return buf, err
}

// Validate applies the semantic frame contract the server enforces before
// touching the pool: known op and side, count within MaxBatch, and a
// payload consistent with the op. It returns StatusOK or the status the
// server should answer with.
func (req *Request) Validate() uint8 {
	if req.Side != Left && req.Side != Right {
		return StatusBad
	}
	switch req.Op {
	case OpPing, OpLen, OpRelax, OpStats:
		if len(req.Values) != 0 {
			return StatusBad
		}
		return StatusOK
	case OpPush:
		if len(req.Values) != 1 || req.Count != 1 {
			return StatusBad
		}
	case OpPop:
		if len(req.Values) != 0 {
			return StatusBad
		}
	case OpPushN:
		if req.Count == 0 || req.Count > MaxBatch || int(req.Count) != len(req.Values) {
			return StatusBad
		}
	case OpPopN:
		if req.Count == 0 || req.Count > MaxBatch || len(req.Values) != 0 {
			return StatusBad
		}
	case OpPushPrio:
		// Key carries the priority band; admission is left-end only.
		if req.Side != Left || len(req.Values) != 1 || req.Count != 1 {
			return StatusBad
		}
	case OpPopMin, OpPopMax, OpDepq:
		// Payload-less and side-less: the op names the end. Anything extra
		// is a desynchronized or malformed peer, not ignorable noise.
		if req.Side != Left || req.Count != 0 || len(req.Values) != 0 {
			return StatusBad
		}
	default:
		return StatusBad
	}
	return StatusOK
}
