package rpcproto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Oversized strings must fail the encode loudly instead of truncating the
// field on the wire, and hand dst back as it was: no partial frame is written.
func TestEncodeStringTooLong(t *testing.T) {
	long := strings.Repeat("x", 1<<16)

	c := sampleCall()
	c.KernelName = long
	if _, err := EncodeCall(c); !errors.Is(err, ErrStringTooLong) {
		t.Fatalf("oversized KernelName: err = %v, want ErrStringTooLong", err)
	}

	r := &Reply{Seq: 1, Err: long}
	if out, err := AppendReply([]byte("prefix"), r); !errors.Is(err, ErrStringTooLong) || string(out) != "prefix" {
		t.Fatalf("oversized reply Err: %q, %v; want the prefix back and ErrStringTooLong", out, err)
	}

	r = &Reply{Seq: 1, Feedback: &Feedback{Kind: long}}
	if _, err := AppendReply(nil, r); !errors.Is(err, ErrStringTooLong) {
		t.Fatalf("oversized feedback Kind: err = %v, want ErrStringTooLong", err)
	}

	// One byte under the limit still encodes.
	c = sampleCall()
	c.KernelName = long[:1<<16-1]
	frame, err := EncodeCall(c)
	if err != nil {
		t.Fatalf("max-length KernelName: %v", err)
	}
	var got Call
	if err := DecodeCallInto(&got, frame[4:], nil); err != nil {
		t.Fatal(err)
	}
	if got.KernelName != c.KernelName {
		t.Fatal("max-length KernelName did not round-trip")
	}
}

// A FrameReader reads back, through its reusable buffer, a mixed sequence of
// calls and replies that AppendCall and AppendReply wrote.
func TestFrameReaderWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fr := NewFrameReader(&buf)
	for i := 0; i < 10; i++ {
		c := sampleCall()
		c.Seq = uint64(i)
		buf.Write(mustEncodeCall(t, c))
		buf.Write(mustEncodeReply(t, &Reply{Seq: uint64(i), Err: "x", Feedback: &Feedback{AppID: int64(i), Kind: "MC"}}))
	}
	var call Call
	var reply Reply
	for i := 0; i < 10; i++ {
		body, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeCallInto(&call, body, &fr.Names); err != nil {
			t.Fatal(err)
		}
		if call.Seq != uint64(i) || call.KernelName != sampleCall().KernelName {
			t.Fatalf("frame %d: call = %+v", i, call)
		}
		if body, err = fr.Next(); err != nil {
			t.Fatal(err)
		}
		if err := DecodeReplyInto(&reply, body, &fr.Names); err != nil {
			t.Fatal(err)
		}
		if reply.Seq != uint64(i) || reply.Feedback == nil || reply.Feedback.AppID != int64(i) {
			t.Fatalf("frame %d: reply = %+v", i, reply)
		}
	}
}

// DecodeReplyInto writes a report into the target frame's own storage, so a
// decode never allocates one, and clears Feedback when a frame carries none.
func TestDecodeReplyIntoFeedbackReuse(t *testing.T) {
	withFB := mustEncodeReply(t, &Reply{Seq: 1, Feedback: &Feedback{AppID: 7, Kind: "MC"}})
	withoutFB := mustEncodeReply(t, &Reply{Seq: 2})

	var rp Reply
	if err := DecodeReplyInto(&rp, withFB[4:], nil); err != nil {
		t.Fatal(err)
	}
	if rp.Feedback != &rp.fb || rp.fb.AppID != 7 {
		t.Fatalf("feedback = %+v, not in the frame", rp.Feedback)
	}
	if err := DecodeReplyInto(&rp, withoutFB[4:], nil); err != nil {
		t.Fatal(err)
	}
	if rp.Feedback != nil {
		t.Fatal("feedback not cleared for a frame without one")
	}
}

// The interner returns the canonical copy for repeated byte strings and does
// not allocate once a value has been seen.
func TestInterner(t *testing.T) {
	var in Interner
	a := in.Intern([]byte("monteCarloKernel"))
	b := in.Intern([]byte("monteCarloKernel"))
	if a != b {
		t.Fatal("interner returned unequal strings")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if s := in.Intern([]byte("monteCarloKernel")); s != a {
			t.Fatal("wrong intern result")
		}
	})
	if allocs != 0 {
		t.Fatalf("Intern of a seen value allocates %.1f per run", allocs)
	}
}

// BenchmarkEncodeCall measures the append-style encoder into a reused buffer:
// steady state must be zero allocations.
func BenchmarkEncodeCall(b *testing.B) {
	c := sampleCall()
	buf := make([]byte, 0, CallWireSize(c))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := AppendCall(buf[:0], c)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != CallWireSize(c) {
			b.Fatalf("encoded %d bytes, wire size says %d", len(out), CallWireSize(c))
		}
	}
}

// BenchmarkDecodeCallInto measures decoding into a reused struct with an
// interner: steady state must be zero allocations.
func BenchmarkDecodeCallInto(b *testing.B) {
	frame, err := EncodeCall(sampleCall())
	if err != nil {
		b.Fatal(err)
	}
	body := frame[4:]
	var c Call
	var names Interner
	if err := DecodeCallInto(&c, body, &names); err != nil { // warm the interner
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeCallInto(&c, body, &names); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameRoundTrip pushes a call and a feedback-bearing reply through
// AppendCall/AppendReply → FrameReader each iteration. After warmup (buffer
// growth, interner fill) the loop must be allocation-free.
func BenchmarkFrameRoundTrip(b *testing.B) {
	var buf bytes.Buffer
	fr := NewFrameReader(&buf)
	c := sampleCall()
	rep := &Reply{Seq: 9, Feedback: &Feedback{AppID: 7, Kind: "MC", MemBW: 0.5}}
	var gotC Call
	var gotR Reply
	var out []byte
	iter := func() {
		buf.Reset()
		var err error
		if out, err = AppendCall(out[:0], c); err != nil {
			b.Fatal(err)
		}
		if out, err = AppendReply(out, rep); err != nil {
			b.Fatal(err)
		}
		buf.Write(out)
		body, err := fr.Next()
		if err != nil {
			b.Fatal(err)
		}
		if err := DecodeCallInto(&gotC, body, &fr.Names); err != nil {
			b.Fatal(err)
		}
		if body, err = fr.Next(); err != nil {
			b.Fatal(err)
		}
		if err := DecodeReplyInto(&gotR, body, &fr.Names); err != nil {
			b.Fatal(err)
		}
	}
	iter() // warmup: grow the bytes.Buffer, fill the interner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
	if gotC.Seq != c.Seq || gotR.Feedback == nil {
		b.Fatal("round trip corrupted data")
	}
}

// BenchmarkWireSize guards the arithmetic size functions used by the
// simulated transport on every Send: no encoding, no allocation.
func BenchmarkWireSize(b *testing.B) {
	c := sampleCall()
	r := &Reply{Err: "invalid device pointer", Feedback: &Feedback{Kind: "MC"}}
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += CallWireSize(c) + ReplyWireSize(r)
	}
	if sink == 0 {
		b.Fatal("unexpected zero size")
	}
}
