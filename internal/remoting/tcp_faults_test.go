package remoting

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
)

// TestStreamDestroyThenSync covers the destroyed-handle path: destroying a
// stream drains its pending work (the session clock advances past the copy),
// and once it is destroyed, synchronizing or re-destroying it must report
// ErrInvalidStream while the session keeps serving. White-box on the session
// so the clock is visible.
func TestStreamDestroyThenSync(t *testing.T) {
	s := newTCPSession(gpu.TeslaC2050)
	defer s.k.Close()

	r := s.execute(&rpcproto.Call{ID: cuda.CallStreamCreate, Seq: 1})
	if r.Err != "" || r.Stream == 0 {
		t.Fatalf("stream create: %+v", r)
	}
	st := r.Stream
	r = s.execute(&rpcproto.Call{ID: cuda.CallMalloc, Seq: 2, Bytes: 8 << 20})
	if r.Err != "" {
		t.Fatalf("malloc: %s", r.Err)
	}
	// Queue async work so destroy has something to drain.
	r = s.execute(&rpcproto.Call{
		ID: cuda.CallMemcpyAsync, Seq: 3, Dir: cuda.H2D, Bytes: 8 << 20,
		PtrID: r.PtrID, PtrSize: r.PtrSize, Stream: st, NonBlocking: true,
	})
	if r.Err != "" {
		t.Fatalf("async copy: %s", r.Err)
	}
	queued := s.k.Now()
	copyDone, pending := s.k.NextEventTime()
	if !pending {
		t.Fatal("the async copy left nothing pending on the session kernel")
	}
	r = s.execute(&rpcproto.Call{ID: cuda.CallStreamDestroy, Seq: 4, Stream: st})
	if r.Err != "" {
		t.Fatalf("destroy: %s", r.Err)
	}
	if s.k.Now() <= queued || s.k.Now() < copyDone {
		t.Fatalf("destroy returned at %v: it did not drain the copy queued at %v", s.k.Now(), queued)
	}
	r = s.execute(&rpcproto.Call{ID: cuda.CallStreamSync, Seq: 5, Stream: st})
	if r.Err != cuda.ErrInvalidStream.Error() {
		t.Fatalf("sync of destroyed stream = %q, want ErrInvalidStream", r.Err)
	}
	r = s.execute(&rpcproto.Call{ID: cuda.CallStreamDestroy, Seq: 6, Stream: st})
	if r.Err != cuda.ErrInvalidStream.Error() {
		t.Fatalf("double destroy = %q, want ErrInvalidStream", r.Err)
	}
	// The drained stream must not resurface: a full device sync still works
	// with the stream gone.
	r = s.execute(&rpcproto.Call{ID: cuda.CallDeviceSync, Seq: 7})
	if r.Err != "" {
		t.Fatalf("device sync after destroy: %s", r.Err)
	}
}

// TestEventElapsedReversedPair records two events separated by real work and
// asks for the elapsed time both ways: forward must be positive, reversed
// must fail with ErrInvalidValue instead of returning a negative duration.
func TestEventElapsedReversedPair(t *testing.T) {
	conn := dialSession(t)
	defer conn.Close()

	mkEvent := func(seq uint64) int32 {
		r := roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallEventCreate, Seq: seq})
		if r.Err != "" {
			t.Fatalf("event create: %s", r.Err)
		}
		return r.Event
	}
	evA, evB := mkEvent(1), mkEvent(2)
	roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallEventRecord, Seq: 3, Event: evA, NonBlocking: true})
	r := roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallMalloc, Seq: 4, Bytes: 8 << 20})
	if r.Err != "" {
		t.Fatalf("malloc: %s", r.Err)
	}
	// A blocking copy advances the virtual clock between the two records.
	r = roundTrip(t, conn, &rpcproto.Call{
		ID: cuda.CallMemcpy, Seq: 5, Dir: cuda.H2D, Bytes: 8 << 20, PtrID: r.PtrID, PtrSize: r.PtrSize,
	})
	if r.Err != "" {
		t.Fatalf("memcpy: %s", r.Err)
	}
	roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallEventRecord, Seq: 6, Event: evB, NonBlocking: true})
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallEventSync, Seq: 7, Event: evB})
	if r.Err != "" {
		t.Fatalf("event sync: %s", r.Err)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallEventElapsed, Seq: 8, Event: evA, Event2: evB})
	if r.Err != "" || r.Elapsed <= 0 {
		t.Fatalf("forward elapsed = %+v, want positive duration", r)
	}
	r = roundTrip(t, conn, &rpcproto.Call{ID: cuda.CallEventElapsed, Seq: 9, Event: evB, Event2: evA})
	if r.Err != cuda.ErrInvalidValue.Error() {
		t.Fatalf("reversed elapsed = %q, want ErrInvalidValue", r.Err)
	}
}

// serveFaulty runs ServeConn over a faulty transport wrapped around the
// server side of a pipe and reports its exit error.
func serveFaulty(t *testing.T, f func(rw io.ReadWriter) io.ReadWriter) (net.Conn, chan error) {
	t.Helper()
	client, server := net.Pipe()
	b := &TCPBackend{Spec: gpu.TeslaC2050}
	done := make(chan error, 1)
	go func() {
		defer server.Close()
		done <- b.ServeConn(f(server))
	}()
	return client, done
}

// TestServeConnSurvivesMidFrameDisconnect injects a truncated reply write:
// the session must exit with a transport error — no panic, no hang.
func TestServeConnSurvivesMidFrameDisconnect(t *testing.T) {
	client, done := serveFaulty(t, func(rw io.ReadWriter) io.ReadWriter {
		return &rpcproto.FaultyRW{RW: rw, Rng: rand.New(rand.NewSource(1)), TruncateProb: 1}
	})
	defer client.Close()
	frame, err := rpcproto.EncodeCall(&rpcproto.Call{ID: cuda.CallDeviceCount, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rpcproto.WriteFrame(client, frame); err != nil {
		t.Fatal(err)
	}
	// The reply frame is cut mid-write; the client sees a short read and the
	// server loop exits with the injected error.
	if _, err := rpcproto.ReadFrame(client); err == nil {
		t.Fatal("read of truncated reply succeeded")
	}
	if err := <-done; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("ServeConn exit = %v, want ErrClosedPipe", err)
	}
}

// TestServeConnSurvivesDroppedReplies injects silent reply loss: the server
// believes it replied and finishes the session cleanly.
func TestServeConnSurvivesDroppedReplies(t *testing.T) {
	var faulty *rpcproto.FaultyRW
	client, done := serveFaulty(t, func(rw io.ReadWriter) io.ReadWriter {
		faulty = &rpcproto.FaultyRW{RW: rw, Rng: rand.New(rand.NewSource(1)), DropProb: 1}
		return faulty
	})
	defer client.Close()
	frame, err := rpcproto.EncodeCall(&rpcproto.Call{ID: cuda.CallThreadExit, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rpcproto.WriteFrame(client, frame); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeConn exit = %v, want clean shutdown", err)
	}
	if faulty.Drops() != 1 {
		t.Fatalf("dropped %d replies, want 1", faulty.Drops())
	}
}

// TestServeConnSurvivesHardClose cuts the transport after a fixed operation
// budget: the session exits with the injected error.
func TestServeConnSurvivesHardClose(t *testing.T) {
	client, done := serveFaulty(t, func(rw io.ReadWriter) io.ReadWriter {
		return &rpcproto.FaultyRW{RW: rw, Rng: rand.New(rand.NewSource(1)), CloseAfter: 3}
	})
	defer client.Close()
	for seq := uint64(1); ; seq++ {
		frame, err := rpcproto.EncodeCall(&rpcproto.Call{ID: cuda.CallDeviceCount, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		if err := rpcproto.WriteFrame(client, frame); err != nil {
			break // transport cut under the client
		}
		if _, err := rpcproto.ReadFrame(client); err != nil {
			break
		}
		if seq > 16 {
			t.Fatal("transport never closed")
		}
	}
	if err := <-done; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("ServeConn exit = %v, want ErrClosedPipe", err)
	}
}

// writeFailRW serves the frames it holds to reads and fails every write.
type writeFailRW struct{ io.Reader }

var errReplyWrite = errors.New("reply write failed")

func (writeFailRW) Write([]byte) (int, error) { return 0, errReplyWrite }

// TestServeConnEndsOnReplyWriteError: a reply that cannot be written ends the
// session with that write's error at the first blocking call, although the
// transport still has calls to read.
func TestServeConnEndsOnReplyWriteError(t *testing.T) {
	var in bytes.Buffer
	first := 0
	for seq := uint64(1); seq <= 3; seq++ {
		frame, err := rpcproto.EncodeCall(&rpcproto.Call{ID: cuda.CallDeviceCount, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		in.Write(frame)
		if seq == 1 {
			first = in.Len()
		}
	}
	unread := in.Len() - first
	err := (&TCPBackend{Spec: gpu.TeslaC2050}).ServeConn(writeFailRW{&in})
	if !errors.Is(err, errReplyWrite) {
		t.Fatalf("ServeConn exit = %v, want the reply write's error", err)
	}
	if in.Len() != unread {
		t.Fatalf("ServeConn read %d bytes past the failed reply", unread-in.Len())
	}
}

// pipeListener hands Serve the server sides of in-memory pipes.
type pipeListener chan net.Conn

func (l pipeListener) Accept() (net.Conn, error) {
	c, ok := <-l
	if !ok {
		return nil, net.ErrClosed
	}
	return c, nil
}
func (l pipeListener) Close() error   { close(l); return nil }
func (l pipeListener) Addr() net.Addr { return nil }

// panicConn stands in for a session that trips a panic: its first read does.
type panicConn struct{ net.Conn }

func (panicConn) Read([]byte) (int, error) { panic("tripped in one session") }

// TestPanickingSessionIsContained: a session that panics ends with the panic
// as its error and its connection closed, and a connection served beside it
// by the same backend still completes.
func TestPanickingSessionIsContained(t *testing.T) {
	b := &TCPBackend{Spec: gpu.TeslaC2050}
	if err := b.ServeConn(panicConn{}); err == nil || !strings.Contains(err.Error(), "tripped in one session") {
		t.Fatalf("ServeConn over a panicking transport returned %v, want the panic as its error", err)
	}

	lis := make(pipeListener)
	defer lis.Close()
	go func() { _ = b.Serve(lis) }()
	badClient, badServer := net.Pipe()
	defer badClient.Close()
	goodClient, goodServer := net.Pipe()
	defer goodClient.Close()
	lis <- panicConn{badServer}
	lis <- goodServer

	if _, err := badClient.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read from the panicked session's connection: %v, want EOF (closed by the backend)", err)
	}
	if r := roundTrip(t, goodClient, &rpcproto.Call{ID: cuda.CallDeviceCount, Seq: 1}); r.Count != 1 {
		t.Fatalf("count beside a panicked session = %d", r.Count)
	}
	if r := roundTrip(t, goodClient, &rpcproto.Call{ID: cuda.CallThreadExit, Seq: 2}); r.Feedback == nil {
		t.Fatal("no feedback on exit beside a panicked session")
	}
}
