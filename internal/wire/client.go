package wire

import (
	"bufio"
	"fmt"
	"net"
)

// Client wraps one connection to a dequed server with buffered framing
// and tag bookkeeping. Not safe for concurrent use — like a deque
// Handle, open one per goroutine. Two usage styles:
//
//   - Closed loop: the Push/Pop/PushN/PopN helpers send one request,
//     flush, and read its response.
//   - Pipelined: queue frames with Send*, Flush once, then Recv exactly
//     as many responses — they arrive in send order with echoed tags.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	nextTag uint32
	out     []byte // append buffer reused across Send calls
	in      []byte // frame scratch reused across Recv calls
	resp    Response
}

// Dial connects to a dequed server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (any net.Conn, including
// net.Pipe ends in tests).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
}

// Close closes the underlying connection without flushing — exactly the
// abrupt mid-stream disconnect the server must tolerate. Call Flush
// first for a polite goodbye.
func (c *Client) Close() error { return c.conn.Close() }

// Conn exposes the underlying connection (deadlines, half-close).
func (c *Client) Conn() net.Conn { return c.conn }

// Send queues req (tag assigned automatically) and returns its tag
// without flushing.
func (c *Client) Send(req *Request) (uint32, error) {
	req.Tag = c.nextTag
	c.nextTag++
	c.out = AppendRequest(c.out[:0], req)
	_, err := c.bw.Write(c.out)
	return req.Tag, err
}

// Flush pushes all queued frames to the connection.
func (c *Client) Flush() error { return c.bw.Flush() }

// Recv reads the next response in stream order. The returned Response
// (including Values) is valid until the next Recv.
func (c *Client) Recv() (*Response, error) {
	var err error
	c.in, err = ReadResponse(c.br, &c.resp, c.in)
	if err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// Do sends req, flushes, and returns its response, verifying the tag
// echo.
func (c *Client) Do(req *Request) (*Response, error) {
	tag, err := c.Send(req)
	if err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if resp.Tag != tag {
		return nil, fmt.Errorf("%w: response tag %d for request %d", ErrFrame, resp.Tag, tag)
	}
	return resp, nil
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	resp, err := c.Do(&Request{Op: OpPing})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Len returns the server's exact total pool length (exact only while
// the server is quiescent, like Pool.LenExact).
func (c *Client) Len() (int, error) {
	resp, err := c.Do(&Request{Op: OpLen})
	if err != nil {
		return 0, err
	}
	return int(resp.Count), resp.Err()
}

// RelaxStats is the server's observed-relaxation snapshot as carried by
// an OpRelax response: Count holds RankMax and Values the four gauges,
// in this struct's field order. A server not running a relaxed front-end
// answers all-zero with Sample 0.
type RelaxStats struct {
	RankMax   uint32 // worst rank error observed (clamped to uint32)
	RankBound uint32 // configured bound (0 = unbounded)
	Sample    uint32 // d-choice width (0 = strict / not relaxed)
	Shards    uint32 // pool width
	MeanMilli uint32 // mean observed rank error x1000
}

// Clamp32 saturates a uint64 gauge into a wire uint32, as the servers
// fill the OpRelax and OpDepq snapshots.
func Clamp32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// Relax queries the observed-relaxation snapshot.
func (c *Client) Relax() (RelaxStats, error) {
	resp, err := c.Do(&Request{Op: OpRelax})
	if err != nil {
		return RelaxStats{}, err
	}
	if err := resp.Err(); err != nil {
		return RelaxStats{}, err
	}
	if len(resp.Values) != 4 {
		return RelaxStats{}, fmt.Errorf("%w: relax snapshot carried %d values", ErrFrame, len(resp.Values))
	}
	return RelaxStats{
		RankMax:   resp.Count,
		RankBound: resp.Values[0],
		Sample:    resp.Values[1],
		Shards:    resp.Values[2],
		MeanMilli: resp.Values[3],
	}, nil
}

// DepqStats is the server's observed-inversion snapshot as carried by an
// OpDepq response: Count holds InvMax and Values the gauges, in this
// struct's field order. A server not running a DEPQ front-end answers
// all-zero with Bands 0.
type DepqStats struct {
	InvMax    uint32 // worst priority inversion observed (band distance)
	BandBound uint32 // effective inversion bound (bands-1 when unbounded)
	Bands     uint32 // priority-band count (0 = not a DEPQ server)
	Choice    uint32 // d-choice width inside the band window
	MeanMilli uint32 // mean observed inversion x1000
}

// Depq queries the observed-inversion snapshot.
func (c *Client) Depq() (DepqStats, error) {
	resp, err := c.Do(&Request{Op: OpDepq})
	if err != nil {
		return DepqStats{}, err
	}
	if err := resp.Err(); err != nil {
		return DepqStats{}, err
	}
	if len(resp.Values) != 4 {
		return DepqStats{}, fmt.Errorf("%w: depq snapshot carried %d values", ErrFrame, len(resp.Values))
	}
	return DepqStats{
		InvMax:    resp.Count,
		BandBound: resp.Values[0],
		Bands:     resp.Values[1],
		Choice:    resp.Values[2],
		MeanMilli: resp.Values[3],
	}, nil
}

// PushPrio submits v under priority prio (band 0 most urgent). ErrFull
// is the load-shedding signal: the job was refused admission and nothing
// landed.
func (c *Client) PushPrio(prio uint64, v uint32) error {
	resp, err := c.Do(&Request{Op: OpPushPrio, Key: prio, Count: 1, Values: []uint32{v}})
	if err != nil {
		return err
	}
	return resp.Err()
}

// popEnd drives PopMin/PopMax: one payload-less frame, a [value, band]
// response.
func (c *Client) popEnd(op uint8) (v uint32, band uint32, ok bool, err error) {
	resp, err := c.Do(&Request{Op: op})
	if err != nil {
		return 0, 0, false, err
	}
	if err := resp.Err(); err != nil {
		return 0, 0, false, err
	}
	if resp.Status == StatusEmpty {
		return 0, 0, false, nil
	}
	if len(resp.Values) != 2 {
		return 0, 0, false, fmt.Errorf("%w: depq pop returned %d values", ErrFrame, len(resp.Values))
	}
	return resp.Values[0], resp.Values[1], true, nil
}

// PopMin pops the most urgent job: value and the band it came from; ok
// is false on empty.
func (c *Client) PopMin() (v uint32, band uint32, ok bool, err error) {
	return c.popEnd(OpPopMin)
}

// PopMax pops the most shed-able job — the scheduler's drop channel.
func (c *Client) PopMax() (v uint32, band uint32, ok bool, err error) {
	return c.popEnd(OpPopMax)
}

// Push pushes v on side under key. The error is the deque contract
// (ErrFull under backpressure) or a transport error.
func (c *Client) Push(side uint8, key uint64, v uint32) error {
	resp, err := c.Do(&Request{Op: OpPush, Side: side, Key: key, Count: 1, Values: []uint32{v}})
	if err != nil {
		return err
	}
	return resp.Err()
}

// Pop pops one value from side under key; ok is false on empty.
func (c *Client) Pop(side uint8, key uint64) (v uint32, ok bool, err error) {
	resp, err := c.Do(&Request{Op: OpPop, Side: side, Key: key})
	if err != nil {
		return 0, false, err
	}
	if err := resp.Err(); err != nil {
		return 0, false, err
	}
	if resp.Status == StatusEmpty {
		return 0, false, nil
	}
	if len(resp.Values) != 1 {
		return 0, false, fmt.Errorf("%w: pop returned %d values", ErrFrame, len(resp.Values))
	}
	return resp.Values[0], true, nil
}

// PushN pushes vs in order on side under key, returning the accepted
// prefix length n: vs[:n] landed, and err is ErrFull when n < len(vs) —
// the batch-API contract over the wire.
func (c *Client) PushN(side uint8, key uint64, vs []uint32) (int, error) {
	resp, err := c.Do(&Request{Op: OpPushN, Side: side, Key: key, Count: uint32(len(vs)), Values: vs})
	if err != nil {
		return 0, err
	}
	return int(resp.Count), resp.Err()
}

// PopN pops up to max values from side under key. The returned slice is
// valid until the next Recv/Do; empty pool returns an empty slice and
// nil error.
func (c *Client) PopN(side uint8, key uint64, max int) ([]uint32, error) {
	resp, err := c.Do(&Request{Op: OpPopN, Side: side, Key: key, Count: uint32(max)})
	if err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return resp.Values, nil
}
