package rpcproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// Wire format: every message is a frame of
//
//	uint32 length | uint8 kind | body
//
// with little-endian integers, float64 as IEEE bits, strings as uint16
// length-prefixed UTF-8 and booleans as single bytes. The body layouts are
// fixed field orders defined by the encode functions below.

// Frame kinds.
const (
	frameCall  = 1
	frameReply = 2
)

// ErrCorruptFrame reports an undecodable message.
var ErrCorruptFrame = errors.New("rpcproto: corrupt frame")

// ErrStringTooLong reports a string field exceeding the uint16 wire length
// prefix. Encoding fails loudly instead of silently truncating the kernel
// name on the wire.
var ErrStringTooLong = errors.New("rpcproto: string exceeds 64 KiB wire limit")

// maxFrame guards against absurd length prefixes from a broken peer.
const maxFrame = 64 << 20

type wbuf struct {
	b   []byte
	err error
}

func (w *wbuf) u8(v uint8)    { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i32(v int32)   { w.u32(uint32(v)) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	if len(s) > math.MaxUint16 {
		if w.err == nil {
			w.err = fmt.Errorf("%w (%d bytes)", ErrStringTooLong, len(s))
		}
		w.u16(0)
		return
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) need(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = ErrCorruptFrame
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}
func (r *rbuf) u8() uint8 {
	s := r.need(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (r *rbuf) u16() uint16 {
	s := r.need(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}
func (r *rbuf) u32() uint32 {
	s := r.need(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (r *rbuf) u64() uint64 {
	s := r.need(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (r *rbuf) i32() int32    { return int32(r.u32()) }
func (r *rbuf) i64() int64    { return int64(r.u64()) }
func (r *rbuf) f64() float64  { return math.Float64frombits(r.u64()) }
func (r *rbuf) boolean() bool { return r.u8() != 0 }
func (r *rbuf) str(names *Interner) string {
	n := int(r.u16())
	s := r.need(n)
	if len(s) == 0 {
		return ""
	}
	if names != nil {
		return names.Intern(s)
	}
	return string(s)
}

// Interner deduplicates decoded strings. Kernel names and error strings come
// from small fixed sets, so a decoder that interns them allocates nothing in
// steady state (the map lookup keyed by a []byte conversion does not copy).
// An Interner is not safe for concurrent use; give each decoder its own.
type Interner struct{ m map[string]string }

// Intern returns the canonical string equal to b, copying it only the first
// time a value is seen.
func (t *Interner) Intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	if t.m == nil {
		t.m = make(map[string]string)
	}
	s := string(b)
	t.m[s] = s
	return s
}

// CallWireSize returns the exact encoded frame length of c (length prefix
// included) without encoding. The simulated transport charges link costs by
// this size on every message, so it must not allocate.
func CallWireSize(c *Call) int { return 109 + len(c.KernelName) }

// ReplyWireSize is CallWireSize for replies.
func ReplyWireSize(r *Reply) int {
	n := 56 + len(r.Err)
	if r.Feedback != nil {
		n += 54 + len(r.Feedback.Kind)
	}
	return n
}

// AppendCall appends c's framed encoding to dst and returns the extended
// buffer. With sufficient capacity in dst it does not allocate.
func AppendCall(dst []byte, c *Call) ([]byte, error) {
	start := len(dst)
	w := &wbuf{b: append(dst, 0, 0, 0, 0)}
	w.u8(frameCall)
	w.u32(uint32(c.ID))
	w.u64(c.Seq)
	w.i64(c.AppID)
	w.i64(c.TenantID)
	w.i32(c.Weight)
	w.i32(c.Dev)
	w.i32(c.Stream)
	w.u8(uint8(c.Dir))
	w.i64(c.Bytes)
	w.i64(c.PtrID)
	w.i64(c.PtrSize)
	w.i32(c.PtrDev)
	w.str(c.KernelName)
	w.f64(c.Compute)
	w.f64(c.MemTraffic)
	w.f64(c.Occupancy)
	w.boolean(c.NonBlocking)
	w.i32(c.Event)
	w.i32(c.Event2)
	if w.err != nil {
		return dst, w.err
	}
	binary.LittleEndian.PutUint32(w.b[start:start+4], uint32(len(w.b)-start-4))
	return w.b, nil
}

// AppendReply appends r's framed encoding to dst and returns the extended
// buffer. With sufficient capacity in dst it does not allocate. On an error
// it returns dst as it was, so a failed encode writes no partial frame.
func AppendReply(dst []byte, r *Reply) ([]byte, error) {
	start := len(dst)
	w := &wbuf{b: append(dst, 0, 0, 0, 0)}
	w.u8(frameReply)
	w.u64(r.Seq)
	w.str(r.Err)
	w.i64(r.PtrID)
	w.i64(r.PtrSize)
	w.i32(r.PtrDev)
	w.i32(r.Stream)
	w.i32(r.Count)
	w.i32(r.Event)
	w.i64(r.Elapsed)
	w.boolean(r.Feedback != nil)
	if f := r.Feedback; f != nil {
		w.i64(f.AppID)
		w.str(f.Kind)
		w.i32(f.GID)
		w.i64(int64(f.ExecTime))
		w.i64(int64(f.GPUTime))
		w.i64(int64(f.XferTime))
		w.f64(f.MemBW)
		w.f64(f.GPUUtil)
	}
	if w.err != nil {
		return dst, w.err
	}
	binary.LittleEndian.PutUint32(w.b[start:start+4], uint32(len(w.b)-start-4))
	return w.b, nil
}

// EncodeCall serializes c into a freshly allocated framed message.
func EncodeCall(c *Call) ([]byte, error) {
	return AppendCall(make([]byte, 0, CallWireSize(c)), c)
}

// DecodeCallInto parses a frameCall body (without the length prefix) into c,
// overwriting every field. names may be nil; with an Interner, steady-state
// decoding does not allocate.
func DecodeCallInto(c *Call, body []byte, names *Interner) error {
	r := &rbuf{b: body}
	if kind := r.u8(); kind != frameCall {
		return fmt.Errorf("%w: kind %d, want call", ErrCorruptFrame, kind)
	}
	c.ID = cuda.CallID(r.u32())
	c.Seq = r.u64()
	c.AppID = r.i64()
	c.TenantID = r.i64()
	c.Weight = r.i32()
	c.Dev = r.i32()
	c.Stream = r.i32()
	c.Dir = cuda.Dir(r.u8())
	c.Bytes = r.i64()
	c.PtrID = r.i64()
	c.PtrSize = r.i64()
	c.PtrDev = r.i32()
	c.KernelName = r.str(names)
	c.Compute = r.f64()
	c.MemTraffic = r.f64()
	c.Occupancy = r.f64()
	c.NonBlocking = r.boolean()
	c.Event = r.i32()
	c.Event2 = r.i32()
	return r.err
}

// DecodeReplyInto parses a frameReply body (without the length prefix) into
// rp, overwriting every field. A report the frame carries lands in rp's own
// storage (AttachFeedback); Feedback is nil when it carries none.
func DecodeReplyInto(rp *Reply, body []byte, names *Interner) error {
	r := &rbuf{b: body}
	if kind := r.u8(); kind != frameReply {
		return fmt.Errorf("%w: kind %d, want reply", ErrCorruptFrame, kind)
	}
	rp.Seq = r.u64()
	rp.Err = r.str(names)
	rp.PtrID = r.i64()
	rp.PtrSize = r.i64()
	rp.PtrDev = r.i32()
	rp.Stream = r.i32()
	rp.Count = r.i32()
	rp.Event = r.i32()
	rp.Elapsed = r.i64()
	if r.boolean() {
		f := rp.AttachFeedback()
		f.AppID = r.i64()
		f.Kind = r.str(names)
		f.GID = r.i32()
		f.ExecTime = sim.Time(r.i64())
		f.GPUTime = sim.Time(r.i64())
		f.XferTime = sim.Time(r.i64())
		f.MemBW = r.f64()
		f.GPUUtil = r.f64()
	} else {
		rp.Feedback = nil
	}
	return r.err
}

// Decode parses one framed message (without the length prefix) into a *Call
// or *Reply.
func Decode(body []byte) (interface{}, error) {
	if len(body) == 0 {
		return nil, ErrCorruptFrame
	}
	switch kind := body[0]; kind {
	case frameCall:
		c := &Call{}
		if err := DecodeCallInto(c, body, nil); err != nil {
			return nil, err
		}
		return c, nil
	case frameReply:
		rp := &Reply{}
		if err := DecodeReplyInto(rp, body, nil); err != nil {
			return nil, err
		}
		return rp, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptFrame, kind)
	}
}

// WriteFrame writes one already-encoded frame to w.
func WriteFrame(w io.Writer, frame []byte) error {
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame body (without length prefix) from r into a fresh
// buffer. Steady-state readers should keep a FrameReader, which reuses its
// buffer across frames.
func ReadFrame(r io.Reader) ([]byte, error) { return NewFrameReader(r).Next() }

// FrameReader reads framed messages from an io.Reader into a buffer it
// reuses. The slice returned by Next is valid only until the following Next
// call.
type FrameReader struct {
	r     io.Reader
	buf   []byte
	hdr   [4]byte
	Names Interner // shared string table for DecodeCallInto/DecodeReplyInto
}

// NewFrameReader returns a reader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next reads one frame body (without the length prefix) into the reader's
// buffer and returns it. Once the buffer has grown to the largest frame,
// reads perform zero allocations.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d", ErrCorruptFrame, n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	return body, nil
}
