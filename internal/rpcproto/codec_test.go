package rpcproto

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cuda"
	"repro/internal/sim"
)

func sampleCall() *Call {
	return &Call{
		ID: cuda.CallLaunch, Seq: 42, AppID: 7, TenantID: 3, Weight: 80,
		Dev: 2, Stream: 5, Dir: cuda.D2H, Bytes: 1 << 20,
		PtrID: 99, PtrSize: 4096, PtrDev: 1,
		KernelName: "monte_carlo", Compute: 1.5e9, MemTraffic: 2.25e8,
		Occupancy: 0.75, NonBlocking: true,
	}
}

func mustEncodeCall(t testing.TB, c *Call) []byte {
	t.Helper()
	frame, err := EncodeCall(c)
	if err != nil {
		t.Fatalf("EncodeCall: %v", err)
	}
	return frame
}

func mustEncodeReply(t testing.TB, r *Reply) []byte {
	t.Helper()
	frame, err := AppendReply(nil, r)
	if err != nil {
		t.Fatalf("AppendReply: %v", err)
	}
	return frame
}

func TestCallRoundTrip(t *testing.T) {
	c := sampleCall()
	frame := mustEncodeCall(t, c)
	got, err := Decode(frame[4:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestReplyRoundTripWithFeedback(t *testing.T) {
	r := &Reply{
		Seq: 42, Err: "cuda: out of memory", PtrID: 1, PtrSize: 2, PtrDev: 3,
		Stream: 4, Count: 5,
	}
	*r.AttachFeedback() = Feedback{
		AppID: 7, Kind: "MC", GID: 2,
		ExecTime: 33 * sim.Second, GPUTime: 11 * sim.Second,
		XferTime: 3 * sim.Second, MemBW: 3047.32, GPUUtil: 0.45,
	}
	frame := mustEncodeReply(t, r)
	got, err := Decode(frame[4:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestReplyRoundTripWithoutFeedback(t *testing.T) {
	r := &Reply{Seq: 1}
	got, err := Decode(mustEncodeReply(t, r)[4:])
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.(*Reply).Feedback != nil {
		t.Fatal("phantom feedback after round trip")
	}
}

func TestDecodeCorruptFrames(t *testing.T) {
	if _, err := Decode([]byte{}); err == nil {
		t.Fatal("empty frame decoded")
	}
	if _, err := Decode([]byte{9, 1, 2}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("unknown kind err = %v", err)
	}
	frame := mustEncodeCall(t, sampleCall())
	if _, err := Decode(frame[4 : len(frame)-3]); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated frame err = %v", err)
	}
}

func TestReplyErrorMapping(t *testing.T) {
	r := &Reply{}
	r.SetError(cuda.ErrMemoryAllocation)
	back, err := Decode(mustEncodeReply(t, r)[4:])
	if err != nil {
		t.Fatal(err)
	}
	if got := back.(*Reply).AsError(); !errors.Is(got, cuda.ErrMemoryAllocation) {
		t.Fatalf("AsError = %v, want ErrMemoryAllocation", got)
	}
	r.SetError(nil)
	if r.AsError() != nil {
		t.Fatal("nil error round trip failed")
	}
	r.Err = "something else"
	if r.AsError() == nil {
		t.Fatal("unknown error string became nil")
	}
}

func TestPayloadBytes(t *testing.T) {
	c := &Call{ID: cuda.CallMemcpy, Dir: cuda.H2D, Bytes: 1000}
	if c.PayloadBytes() != 1000 || c.ReplyPayloadBytes() != 0 {
		t.Fatal("H2D memcpy payload accounting wrong")
	}
	c.Dir = cuda.D2H
	if c.PayloadBytes() != 0 || c.ReplyPayloadBytes() != 1000 {
		t.Fatal("D2H memcpy payload accounting wrong")
	}
	c = &Call{ID: cuda.CallLaunch, Bytes: 5}
	if c.PayloadBytes() != 0 || c.ReplyPayloadBytes() != 0 {
		t.Fatal("launch should carry no bulk payload")
	}
	ac := &Call{ID: cuda.CallMemcpyAsync, Dir: cuda.H2D, Bytes: 77}
	if ac.PayloadBytes() != 77 {
		t.Fatal("async H2D payload accounting wrong")
	}
}

func TestWriteReadFrame(t *testing.T) {
	var buf bytes.Buffer
	frame := mustEncodeCall(t, sampleCall())
	if err := WriteFrame(&buf, frame); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleCall()) {
		t.Fatal("frame round trip mismatch")
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("zero-length err = %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{255, 255, 255, 255})); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("huge-length err = %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan *Call, 1)
	go func() {
		body, err := ReadFrame(b)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		m, err := Decode(body)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- m.(*Call)
	}()
	if err := WriteFrame(a, mustEncodeCall(t, sampleCall())); err != nil {
		t.Fatal(err)
	}
	got := <-done
	if got == nil || !reflect.DeepEqual(got, sampleCall()) {
		t.Fatal("TCP round trip mismatch")
	}
}

// Property: any call round-trips exactly through the codec.
func TestQuickCallRoundTrip(t *testing.T) {
	f := func(id uint8, seq uint64, app, tenant int64, w, dev, stream int32,
		dir bool, bytes1, ptrID, ptrSize int64, name string,
		comp, mem, occ float64, nb bool) bool {
		c := &Call{
			ID: cuda.CallID(id%12) + 1, Seq: seq, AppID: app, TenantID: tenant,
			Weight: w, Dev: dev, Stream: stream, Dir: cuda.Dir(0),
			Bytes: bytes1, PtrID: ptrID, PtrSize: ptrSize,
			KernelName: name, Compute: comp, MemTraffic: mem, Occupancy: occ,
			NonBlocking: nb,
		}
		if dir {
			c.Dir = cuda.D2H
		}
		frame, err := EncodeCall(c)
		if err != nil {
			return len(name) > 65535 // only oversized strings may fail
		}
		if len(frame) != CallWireSize(c) {
			return false
		}
		got, err := Decode(frame[4:])
		return err == nil && reflect.DeepEqual(got, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any reply round-trips exactly, with and without feedback.
func TestQuickReplyRoundTrip(t *testing.T) {
	f := func(seq uint64, errs string, ptr int64, stream, count int32,
		withFB bool, app int64, kind string, exec, gput int64, bw, util float64) bool {
		r := &Reply{Seq: seq, Err: errs, PtrID: ptr, Stream: stream, Count: count}
		if withFB {
			*r.AttachFeedback() = Feedback{
				AppID: app, Kind: kind,
				ExecTime: sim.Time(exec), GPUTime: sim.Time(gput),
				MemBW: bw, GPUUtil: util,
			}
		}
		frame, err := AppendReply(nil, r)
		if err != nil {
			return len(errs) > 65535 || len(kind) > 65535
		}
		if len(frame) != ReplyWireSize(r) {
			return false
		}
		got, err := Decode(frame[4:])
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
