package remoting

import (
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
)

// dialSession starts a backend on a pipe and returns the client side.
func dialSession(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	b := &TCPBackend{Spec: gpu.TeslaC2050}
	go func() {
		defer server.Close()
		_ = b.ServeConn(server)
	}()
	return client
}

func roundTrip(t *testing.T, conn net.Conn, call *rpcproto.Call) *rpcproto.Reply {
	t.Helper()
	frame, err := rpcproto.EncodeCall(call)
	if err != nil {
		t.Fatal(err)
	}
	if err := rpcproto.WriteFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	if call.NonBlocking {
		return nil
	}
	body, err := rpcproto.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := rpcproto.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	return msg.(*rpcproto.Reply)
}

func TestTCPBackendSession(t *testing.T) {
	conn := dialSession(t)
	defer conn.Close()

	r := roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallSetDevice, Seq: 1, AppID: 7, KernelName: "MC"})
	if r.Err != "" {
		t.Fatalf("register: %s", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallDeviceCount, Seq: 2})
	if r.Count != 1 {
		t.Fatalf("count = %d", r.Count)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallMalloc, Seq: 3, Bytes: 1 << 20})
	if r.Err != "" || r.PtrID == 0 {
		t.Fatalf("malloc: %+v", r)
	}
	ptr := r.PtrID
	r = roundTrip(t, conn, &rpcproto.Call{
		ID: cuda.CallMemcpy, Seq: 4, Dir: cuda.H2D, Bytes: 1 << 20, PtrID: ptr, PtrSize: 1 << 20,
	})
	if r.Err != "" {
		t.Fatalf("memcpy: %s", r.Err)
	}
	// Non-blocking launch produces no reply.
	roundTrip(t, conn, &rpcproto.Call{
		ID: cuda.CallLaunch, Seq: 5, Compute: 1e6, NonBlocking: true,
	})
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallDeviceSync, Seq: 6})
	if r.Err != "" {
		t.Fatalf("sync: %s", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallFree, Seq: 7, PtrID: ptr, PtrSize: 1 << 20})
	if r.Err != "" {
		t.Fatalf("free: %s", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallThreadExit, Seq: 8, AppID: 7, KernelName: "MC"})
	if r.Err != "" || r.Feedback == nil {
		t.Fatalf("exit: %+v", r)
	}
	fb := r.Feedback
	if fb.ExecTime <= 0 {
		t.Fatalf("feedback exec time %v", fb.ExecTime)
	}
	// The session's thread runs as the connection's first AppID, so that is
	// the application the device attributed the copy and the kernel to.
	if fb.AppID != 7 || fb.Kind != "MC" || fb.GPUTime <= 0 || fb.XferTime <= 0 {
		t.Fatalf("feedback for app 7 = %+v, want nonzero GPU and transfer time", fb)
	}
}

func TestTCPBackendErrors(t *testing.T) {
	conn := dialSession(t)
	defer conn.Close()
	r := roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallFree, Seq: 1, PtrID: 99})
	if r.Err == "" {
		t.Fatal("free of bogus pointer succeeded")
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallMalloc, Seq: 2, Bytes: 1 << 40})
	if r.Err == "" {
		t.Fatal("oversized malloc succeeded")
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallStreamSync, Seq: 3, Stream: 42})
	if r.Err != cuda.ErrInvalidStream.Error() {
		t.Fatalf("sync of unknown stream should fail with ErrInvalidStream, got %q", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallID(77), Seq: 4})
	if r.Err != cuda.ErrNotImplemented.Error() {
		t.Fatalf("unknown call = %q, want ErrNotImplemented", r.Err)
	}

	// The session validates pointers like every other backend: a copy may
	// not overrun its allocation and a free must name the allocation exactly.
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallMalloc, Seq: 5, Bytes: 1 << 20})
	if r.Err != "" {
		t.Fatalf("malloc: %s", r.Err)
	}
	ptr, size := r.PtrID, r.PtrSize
	r = roundTrip(t, conn, &rpcproto.Call{
		ID: cuda.CallMemcpy, Seq: 6, Dir: cuda.H2D, Bytes: 2 << 20, PtrID: ptr, PtrSize: size,
	})
	if r.Err != cuda.ErrInvalidValue.Error() {
		t.Fatalf("memcpy past the allocation = %q, want ErrInvalidValue", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallFree, Seq: 7, PtrID: ptr, PtrSize: size * 2})
	if r.Err != cuda.ErrInvalidPtr.Error() {
		t.Fatalf("free with a forged size = %q, want ErrInvalidPtr", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallFree, Seq: 8, PtrID: ptr, PtrSize: size})
	if r.Err != "" {
		t.Fatalf("free: %s", r.Err)
	}
}

// TestSessionKeepsAsynchrony is white-box on the session: a non-blocking
// launch must survive the port as pending device work. A cheap blocking call
// returns while the kernel is still running, and the stream synchronize is
// what completes it.
func TestSessionKeepsAsynchrony(t *testing.T) {
	s := newTCPSession(gpu.TeslaC2050)
	defer s.k.Close()
	s.execute(&rpcproto.Call{ID: cuda.CallLaunch, Seq: 1, Compute: 5e8, NonBlocking: true})
	launched := s.k.Now()
	if r := s.execute(&rpcproto.Call{ID: cuda.CallDeviceCount, Seq: 2}); r.Err != "" || r.Count != 1 || r.Seq != 2 {
		t.Fatalf("device count = %+v", r)
	}
	cheap := s.k.Now() - launched
	done, pending := s.k.NextEventTime()
	if !pending || done <= s.k.Now() {
		t.Fatalf("after a cheap call the kernel's op should still be pending: next event %v (pending %v) at %v",
			done, pending, s.k.Now())
	}
	if r := s.execute(&rpcproto.Call{ID: cuda.CallStreamSync, Seq: 3}); r.Err != "" {
		t.Fatalf("stream sync: %s", r.Err)
	}
	if s.k.Now() < done || s.k.Now()-launched < 100*cheap {
		t.Fatalf("stream sync returned at %v; the kernel completes at %v (cheap call took %v)", s.k.Now(), done, cheap)
	}
	if _, pending := s.k.NextEventTime(); pending {
		t.Fatal("device work still pending after the stream synchronize")
	}
}

// TestSessionProcessEndsWithConnection: ServeConn closes its session's kernel,
// so neither the session process — parked on its next call between calls, or
// never started when the client sent nothing — nor its coroutine outlives the
// connection.
func TestSessionProcessEndsWithConnection(t *testing.T) {
	s := newTCPSession(gpu.TeslaC2050)
	s.execute(&rpcproto.Call{ID: cuda.CallLaunch, Seq: 1, Compute: 1e6, NonBlocking: true})
	if !slices.Contains(s.k.Blocked(), "session") {
		t.Fatalf("session process not parked between calls: %v", s.k.Blocked())
	}
	s.k.Close()
	if n := s.k.ProcCount(); n != 0 {
		t.Fatalf("%d processes after the session's kernel closed, blocked: %v", n, s.k.Blocked())
	}

	b := &TCPBackend{Spec: gpu.TeslaC2050}
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if err := b.ServeConn(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(""), io.Discard}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("100 empty connections took the process from %d to %d goroutines", before, after)
	}
}

func TestTCPBackendOverRealSocket(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	b := &TCPBackend{Spec: gpu.Quadro2000}
	go func() { _ = b.Serve(lis) }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallDeviceCount, Seq: 1})
	if r.Count != 1 {
		t.Fatalf("count over TCP = %d", r.Count)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallThreadExit, Seq: 2})
	if r.Feedback == nil {
		t.Fatal("no feedback on exit")
	}
}
