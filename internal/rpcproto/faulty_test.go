package rpcproto

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// pipeBuf is the in-memory peer of a FaultyRW: writes land in a buffer the
// test reads back as the "wire".
type pipeBuf struct{ bytes.Buffer }

// testFrame is a reply frame; the tests write it in one Write, as the TCP backend does.
func testFrame(t *testing.T, seq uint64) []byte {
	return mustEncodeReply(t, &Reply{Seq: seq, PtrID: 1, PtrSize: 4096})
}

func TestFaultyRWPassThrough(t *testing.T) {
	var wire pipeBuf
	f := &FaultyRW{RW: &wire, Rng: rand.New(rand.NewSource(1))}
	if _, err := f.Write(testFrame(t, 7)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	body, err := NewFrameReader(f).Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	msg, err := Decode(body)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if r := msg.(*Reply); r.Seq != 7 || r.PtrSize != 4096 {
		t.Fatalf("round-tripped reply = %+v", r)
	}
	if f.Drops() != 0 {
		t.Fatalf("pass-through dropped %d frames", f.Drops())
	}
}

func TestFaultyRWDropSwallowsFrames(t *testing.T) {
	var wire pipeBuf
	f := &FaultyRW{RW: &wire, Rng: rand.New(rand.NewSource(1)), DropProb: 1}
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := f.Write(testFrame(t, seq)); err != nil {
			t.Fatalf("dropped write %d surfaced error %v", seq, err)
		}
	}
	if f.Drops() != 3 {
		t.Fatalf("Drops = %d, want 3", f.Drops())
	}
	if wire.Len() != 0 {
		t.Fatalf("%d bytes reached the wire despite DropProb=1", wire.Len())
	}
}

func TestFaultyRWTruncateIsMidFrameDisconnect(t *testing.T) {
	var wire pipeBuf
	f := &FaultyRW{RW: &wire, Rng: rand.New(rand.NewSource(1)), TruncateProb: 1}
	if _, err := f.Write(testFrame(t, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("truncated write error = %v, want ErrClosedPipe", err)
	}
	if wire.Len() == 0 {
		t.Fatal("truncate wrote nothing: a mid-frame disconnect leaves partial bytes")
	}
	// The half-frame on the wire must fail to parse as a full frame —
	// the reader sees an unexpected EOF, not a corrupt success.
	if _, err := NewFrameReader(&wire).Next(); err == nil {
		t.Fatal("reading a truncated frame succeeded")
	}
	// The transport is hard-closed afterwards.
	if _, err := f.Write([]byte{1}); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("post-truncate write error = %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("post-truncate read error = %v", err)
	}
}

func TestFaultyRWCloseAfterBudget(t *testing.T) {
	var wire pipeBuf
	f := &FaultyRW{RW: &wire, Rng: rand.New(rand.NewSource(1)), CloseAfter: 2}
	if _, err := f.Write([]byte("ab")); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if _, err := f.Write([]byte("cd")); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if _, err := f.Write([]byte("ef")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("op 3 error = %v, want ErrClosedPipe", err)
	}
	if got := wire.String(); got != "abcd" {
		t.Fatalf("wire = %q, want the two pre-close writes", got)
	}
}

// TestFaultyRWSeededScheduleIsDeterministic drives the same probabilistic
// schedule twice and requires identical drop decisions.
func TestFaultyRWSeededScheduleIsDeterministic(t *testing.T) {
	run := func() (drops int, wire int) {
		var buf pipeBuf
		f := &FaultyRW{RW: &buf, Rng: rand.New(rand.NewSource(99)), DropProb: 0.5}
		for seq := uint64(1); seq <= 32; seq++ {
			if _, err := f.Write(testFrame(t, seq)); err != nil {
				t.Fatalf("write %d: %v", seq, err)
			}
		}
		return f.Drops(), buf.Len()
	}
	d1, w1 := run()
	d2, w2 := run()
	if d1 != d2 || w1 != w2 {
		t.Fatalf("seeded schedule diverged: (%d,%d) vs (%d,%d)", d1, w1, d2, w2)
	}
	if d1 == 0 || d1 == 32 {
		t.Fatalf("DropProb=0.5 dropped %d/32 — schedule not exercising both paths", d1)
	}
}
