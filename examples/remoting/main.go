// Remoting: GPU remoting over a real TCP socket. The example starts a
// backend daemon hosting a simulated Tesla C2050 on a loopback listener,
// dials it as a frontend, and drives a small CUDA call sequence through the
// marshalled wire protocol — the Figure 3 path (interpose → marshal → RPC →
// dispatch) with actual bytes on an actual socket.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/netguard"
	"repro/internal/remoting"
	"repro/internal/rpcproto"
)

func call(conn net.Conn, c *rpcproto.Call) *rpcproto.Reply {
	frame, err := rpcproto.EncodeCall(c)
	if err != nil {
		log.Fatal(err)
	}
	if err := rpcproto.WriteFrame(conn, frame); err != nil {
		log.Fatal(err)
	}
	if c.NonBlocking {
		return nil
	}
	body, err := rpcproto.ReadFrame(conn)
	if err != nil {
		log.Fatal(err)
	}
	msg, err := rpcproto.Decode(body)
	if err != nil {
		log.Fatal(err)
	}
	return msg.(*rpcproto.Reply)
}

func main() {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer lis.Close()
	backend := &remoting.TCPBackend{
		Spec:         gpu.TeslaC2050,
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	go func() { _ = backend.Serve(lis) }()
	fmt.Fprintf(os.Stderr, "backend daemon (simulated %s) listening on %s\n", gpu.TeslaC2050.Name, lis.Addr())

	// Dial with retries so a slow-starting daemon doesn't fail the client.
	conn, err := netguard.DialRetry("tcp", lis.Addr().String(), 5, 20*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	seq := uint64(0)
	next := func() uint64 { seq++; return seq }

	r := call(conn, &rpcproto.Call{ID: cuda.CallSetDevice, Seq: next(), AppID: 1, KernelName: "MC"})
	fmt.Printf("cudaSetDevice            → err=%q\n", r.Err)

	r = call(conn, &rpcproto.Call{ID: cuda.CallMalloc, Seq: next(), Bytes: 64 << 20})
	fmt.Printf("cudaMalloc(64 MiB)       → ptr=%d\n", r.PtrID)
	ptr := r.PtrID

	r = call(conn, &rpcproto.Call{
		ID: cuda.CallMemcpy, Seq: next(), Dir: cuda.H2D,
		Bytes: 64 << 20, PtrID: ptr, PtrSize: 64 << 20,
	})
	fmt.Printf("cudaMemcpy H2D (64 MiB)  → err=%q (synchronous: virtual clock advanced)\n", r.Err)

	call(conn, &rpcproto.Call{
		ID: cuda.CallLaunch, Seq: next(), KernelName: "monteCarloKernel",
		Compute: 5e8, MemTraffic: 1e8, NonBlocking: true,
	})
	fmt.Println("cudaLaunch               → non-blocking RPC, no reply frame")

	r = call(conn, &rpcproto.Call{ID: cuda.CallDeviceSync, Seq: next()})
	fmt.Printf("cudaDeviceSynchronize    → err=%q\n", r.Err)

	r = call(conn, &rpcproto.Call{ID: cuda.CallThreadExit, Seq: next(), AppID: 1, KernelName: "MC"})
	fb := r.Feedback
	fmt.Printf("cudaThreadExit           → feedback piggybacked:\n")
	fmt.Printf("  session virtual time %v, GPU service %v, transfer time %v\n",
		fb.ExecTime, fb.GPUTime, fb.XferTime)
}
