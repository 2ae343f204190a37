package netguard

import (
	"net"
	"testing"
	"time"
)

func TestWithDeadlinesZeroIsPassThrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := WithDeadlines(a, 0, 0); got != a {
		t.Fatal("zero deadlines must return the connection unchanged")
	}
	if _, ok := WithDeadlines(a, time.Second, 0).(*Conn); !ok {
		t.Fatal("non-zero deadline must wrap the connection")
	}
}

func TestReadDeadlineFires(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	g := WithDeadlines(a, 20*time.Millisecond, 0)
	buf := make([]byte, 1)
	if _, err := g.Read(buf); err == nil {
		t.Fatal("read with no writer should hit the deadline")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("deadline error = %v, want a net timeout", err)
	}
}

func TestDeadlineReArmsPerRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	g := WithDeadlines(a, 300*time.Millisecond, 0)
	// Three sequential slow-ish writes, each gap 150ms inside the per-read
	// budget but together beyond it: only a re-armed deadline lets every read
	// succeed, with 150ms of slack for a loaded host.
	go func() {
		for i := 0; i < 3; i++ {
			time.Sleep(150 * time.Millisecond)
			b.Write([]byte{byte(i)})
		}
	}()
	buf := make([]byte, 1)
	for i := 0; i < 3; i++ {
		if _, err := g.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

func TestDialRetryEventuallyConnects(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := lis.Addr().String()
	lis.Close() // nothing is listening now

	if _, err := DialRetry("tcp", addr, 2, time.Millisecond); err == nil {
		t.Fatal("dial against a closed port should exhaust its attempts")
	}

	// Bring a listener up after the first attempt would have failed.
	go func() {
		time.Sleep(30 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial loop will fail the test below
		}
		defer l2.Close()
		c, err := l2.Accept()
		if err == nil {
			c.Close()
		}
	}()
	conn, err := DialRetry("tcp", addr, 8, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("DialRetry never connected: %v", err)
	}
	conn.Close()
}
