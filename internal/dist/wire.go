package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"slider/internal/persist"
)

// This file is the wire between a Pool and its Workers. Everything on it
// is a persist frame — the envelopes under persist's sld2 header (magic,
// kind, length, crc32) with kinds of their own, not a second header — so
// every byte sits under exactly one checksum, and a message is an envelope
// frame followed by the item frames it counts:
//
//	call   kindCall envelope, then
//	         opMap    one split frame per map task (persist.AppendSplit)
//	         opPing   nothing
//	         opStats  nothing
//	reply  kindReply envelope, then, when its status is statusOK,
//	         opMap    one map-result frame per split, in the call's order
//	                  (persist.AppendMapResult), then a value frame of
//	                  []metrics.WireSpan when the call asked for a trace
//	                  and the worker keeps one
//	         opPing   one value frame of PingReply
//	         opStats  one value frame of metrics.NodeStats
//
// Envelope bodies (integers little-endian, str = u32 length | bytes):
//
//	kindCall   u64 id | u8 op | u8 traced | u32 items |
//	           u64 traceID | u64 slideID | str job | str parentSpan
//	kindReply  u64 id | u8 status | u32 items | str worker | str text
//
// A value frame is persist's sld1 frame around a gob value
// (persist.AppendValue, persist.Decode) — the frame a gob-fallback split
// already travels in. What it holds is said by the call's op and the
// frame's place in the reply.
//
// A connection carries one request at a time. That is what the traffic
// is: a Runtime is a single caller, a round sends each worker one batch,
// a hedge goes only to a worker with nothing in flight, and the stats
// poll (1 Hz) skips a connection that is busy. So there is no reader
// goroutine, no per-call channel and no multiplexer: the caller writes
// its request and reads its reply on its own goroutine, holding the
// connection's lock, and the id in the envelope only detects a reply that
// is not the one waited for. The cancellation points are the socket's
// deadline and Close.
const (
	kindCall byte = persist.KindTransport + iota
	kindReply
)

// Call operations.
const (
	opMap byte = 1 + iota
	opPing
	opStats
)

// Reply statuses.
const (
	// statusOK: the reply's items answer the call.
	statusOK byte = iota
	// statusJobError: the worker is healthy and the job itself failed
	// (unknown name, a Map that returned an error or panicked). Running it
	// elsewhere cannot help; the pool reports a RemoteError.
	statusJobError
	// statusCorruptRequest: a frame of the call failed its checksum or did
	// not parse. The bytes were damaged between the two ends, so the pool
	// treats it as it treats a damaged reply: fail the contact, run the
	// batch again.
	statusCorruptRequest
	// statusRefused: the connection's first bytes were not a frame at all
	// — the peer speaks something else.
	statusRefused
)

// RemoteError is a job's failure on a worker: the worker answered, so the
// transport is healthy, and what failed is deterministic — an unknown job
// name, a Map that returned an error or panicked on a record. The pool
// neither retries it nor reports it as a partial result.
type RemoteError struct {
	// Worker names the worker that answered.
	Worker string
	// Msg is the worker's error text.
	Msg string
}

func (e *RemoteError) Error() string { return e.Msg }

// errCorruptRequest marks a call the worker received damaged.
var errCorruptRequest = errors.New("dist: request corrupted in flight")

// errProtocol marks a peer whose first bytes are not a frame.
var errProtocol = errors.New("dist: peer does not speak the slider frame protocol (sld2 frames; a net/rpc worker predates it)")

// call is a decoded call envelope. The byte fields alias the frame they
// were read from and die with the connection's next read.
type call struct {
	id      uint64
	op      byte
	traced  bool
	items   uint32
	traceID uint64
	slideID uint64
	job     []byte
	parent  []byte
}

// reply is a decoded reply envelope; its byte fields alias the frame.
type reply struct {
	id     uint64
	status byte
	items  uint32
	worker []byte
	text   []byte
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(s))), s...)
}

func appendCall(dst []byte, c call, job, parent string) []byte {
	dst = persist.StartFrame(dst, kindCall)
	body := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, c.id)
	traced := byte(0)
	if c.traced {
		traced = 1
	}
	dst = append(dst, c.op, traced)
	dst = binary.LittleEndian.AppendUint32(dst, c.items)
	dst = binary.LittleEndian.AppendUint64(dst, c.traceID)
	dst = binary.LittleEndian.AppendUint64(dst, c.slideID)
	dst = appendStr(appendStr(dst, job), parent)
	return persist.FinishFrame(dst, body)
}

func appendReply(dst []byte, id uint64, status byte, items uint32, worker, text string) []byte {
	dst = persist.StartFrame(dst, kindReply)
	body := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint32(dst, items)
	dst = appendStr(appendStr(dst, worker), text)
	return persist.FinishFrame(dst, body)
}

// cursor reads an envelope body front to back; a read past the end sets
// bad and yields zeros, so a decoder checks once, at the end.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) take(n uint64) []byte {
	if n > uint64(len(c.b)) {
		c.bad, c.b = true, nil
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u8() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) str() []byte { return c.take(uint64(c.u32())) }

// openEnvelope checks an envelope frame of the wanted kind and returns a
// cursor over its body.
func openEnvelope(frame []byte, want byte) (cursor, error) {
	kind, body, err := persist.OpenFrame(frame)
	if err != nil {
		return cursor{}, err
	}
	if kind != want {
		return cursor{}, fmt.Errorf("%w: frame kind %d where envelope kind %d belongs", persist.ErrCorrupt, kind, want)
	}
	return cursor{b: body}, nil
}

func decodeCall(frame []byte) (call, error) {
	cur, err := openEnvelope(frame, kindCall)
	if err != nil {
		return call{}, err
	}
	c := call{id: cur.u64(), op: cur.u8(), traced: cur.u8() != 0, items: cur.u32(),
		traceID: cur.u64(), slideID: cur.u64(), job: cur.str(), parent: cur.str()}
	if cur.bad || len(cur.b) != 0 {
		return call{}, fmt.Errorf("%w: call envelope of %d bytes does not parse", persist.ErrCorrupt, len(frame))
	}
	return c, nil
}

func decodeReply(frame []byte) (reply, error) {
	cur, err := openEnvelope(frame, kindReply)
	if err != nil {
		return reply{}, err
	}
	r := reply{id: cur.u64(), status: cur.u8(), items: cur.u32(), worker: cur.str(), text: cur.str()}
	if cur.bad || len(cur.b) != 0 {
		return reply{}, fmt.Errorf("%w: reply envelope of %d bytes does not parse", persist.ErrCorrupt, len(frame))
	}
	return r, nil
}

// wireBufInit is a connection buffer's first size; it doubles from there
// as data arrives. wireBufKeep is the largest buffer a connection holds on
// to between messages: a window's initial run ships the whole window in one
// batch, a hundred times a slide's, and a connection that kept what that
// took would keep it for life. Steady-state batches are well below it.
const (
	wireBufInit = 4 << 10
	wireBufKeep = 1 << 20
)

// wireConn is one end of a connection: the socket and the two buffers it
// keeps. The write buffer holds the message being built and is written
// once; the read buffer holds what has arrived and not yet been handed
// out. Both grow to the largest message the connection has carried, up to
// wireBufKeep, and are reused for every later one.
//
// The pool's end takes mu for a whole request — from the first byte built
// into wbuf to the last result decoded out of rbuf. The worker's end has
// one goroutine and never takes it.
type wireConn struct {
	mu sync.Mutex
	c  net.Conn
	id uint64 // of the last call sent (pool end)

	wbuf []byte
	rbuf []byte
	r, w int  // rbuf[r:w] has arrived and not been handed out
	seen bool // a frame has been read: the peer speaks frames
}

func newWireConn(c net.Conn) *wireConn { return &wireConn{c: c} }

// next returns the next whole frame off the socket. The frame aliases the
// read buffer and is valid until the following call of next, which may
// move or overwrite it; a caller decodes what it needs out of it first
// (or, on the worker, finishes the map task whose records alias it).
//
// A length read off the socket buys no allocation: the frame's claimed
// size is checked against persist.MaxFrameLen and then only says how many
// bytes to wait for, and the buffer grows by doubling as they arrive.
func (c *wireConn) next() ([]byte, error) {
	err := c.fill(persist.FramePrefixLen)
	var size int
	if err == nil {
		size, err = persist.FrameSize(c.rbuf[c.r:c.w])
	}
	if err == nil {
		err = c.fill(size)
	}
	if err != nil {
		return nil, err
	}
	c.seen = true
	frame := c.rbuf[c.r : c.r+size]
	c.r += size
	return frame, nil
}

// fill reads until n bytes have arrived and not been handed out.
func (c *wireConn) fill(n int) error {
	if c.r == c.w && len(c.rbuf) > wireBufKeep {
		c.rbuf, c.r, c.w = nil, 0, 0
	}
	for c.w-c.r < n {
		if c.r > 0 && (c.r == c.w || c.r+n > len(c.rbuf)) {
			// What was handed out is dead: move the rest to the front.
			c.w = copy(c.rbuf, c.rbuf[c.r:c.w])
			c.r = 0
		}
		if c.w == len(c.rbuf) {
			grown := make([]byte, max(2*len(c.rbuf), wireBufInit))
			copy(grown, c.rbuf[:c.w])
			c.rbuf = grown
		}
		m, err := c.c.Read(c.rbuf[c.w:])
		c.w += m
		if err != nil && c.w-c.r < n {
			if err == io.EOF && c.w > c.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// skip reads and drops n frames: the items of a call that has already
// failed, so the reply goes out on a stream that is still in step.
func (c *wireConn) skip(n uint32) error {
	for ; n > 0; n-- {
		if _, err := c.next(); err != nil {
			return err
		}
	}
	return nil
}

// arm sets the deadline the whole of the next exchange runs under, or
// clears the last one when there is none.
func (c *wireConn) arm(timeout time.Duration) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	_ = c.c.SetDeadline(deadline) // it fails on a closed socket, and so will the write
}

// flush writes the message built in wbuf, once, and empties the buffer.
func (c *wireConn) flush() error {
	_, err := c.c.Write(c.wbuf)
	if c.wbuf = c.wbuf[:0]; cap(c.wbuf) > wireBufKeep {
		c.wbuf = nil
	}
	return err
}

// begin starts a call in the write buffer: a fresh id and the envelope.
// The caller appends the call's items to wbuf and then calls exchange.
func (c *wireConn) begin(env call, job, parent string) {
	c.id++
	env.id = c.id
	c.wbuf = appendCall(c.wbuf[:0], env, job, parent)
}

// exchange sends the call built in wbuf and reads the envelope of its
// reply, under the deadline. It returns the envelope of a reply whose
// status is statusOK; the reply's items are the caller's to read with
// next. Any other outcome is an error, and after any error but a
// *RemoteError the connection is out of step and must be closed.
func (c *wireConn) exchange(timeout time.Duration) (reply, error) {
	c.arm(timeout)
	if err := c.flush(); err != nil {
		return reply{}, err
	}
	frame, err := c.next()
	if err != nil {
		if !c.seen && (errors.Is(err, persist.ErrCorrupt) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			// Bytes that are no frame, or a hang-up, in answer to the
			// connection's first call: not a worker of this protocol.
			err = fmt.Errorf("%w: %v", errProtocol, err)
		}
		return reply{}, err
	}
	rep, err := decodeReply(frame)
	if err != nil {
		return reply{}, err
	}
	switch rep.status {
	case statusCorruptRequest:
		return reply{}, fmt.Errorf("%w: %s: %s", errCorruptRequest, rep.worker, rep.text)
	case statusRefused:
		return reply{}, fmt.Errorf("%w: %s: %s", errProtocol, rep.worker, rep.text)
	}
	if rep.id != c.id {
		return reply{}, fmt.Errorf("dist: %s answered request %d, want %d", rep.worker, rep.id, c.id)
	}
	switch rep.status {
	case statusOK:
		return rep, nil
	case statusJobError:
		if rep.items != 0 {
			return reply{}, fmt.Errorf("dist: %s sent %d items behind an error", rep.worker, rep.items)
		}
		return reply{}, &RemoteError{Worker: string(rep.worker), Msg: string(rep.text)}
	}
	return reply{}, fmt.Errorf("dist: %s answered with unknown status %d", rep.worker, rep.status)
}

// value runs a call that has no items and whose answer is one value frame
// (ping, stats).
func (c *wireConn) value(op byte, timeout time.Duration, out any) error {
	c.begin(call{op: op}, "", "")
	rep, err := c.exchange(timeout)
	if err != nil {
		return err
	}
	if rep.items != 1 {
		return fmt.Errorf("dist: %s answered with %d items, want 1", rep.worker, rep.items)
	}
	frame, err := c.next()
	if err != nil {
		return err
	}
	return persist.Decode(frame, out)
}
