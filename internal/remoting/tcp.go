// Package remoting is the TCP wire probe: TCPBackend serves the marshalled
// CUDA protocol over a real socket. The gPool itself — GID → (node, local
// device) — is the Device Status Table core.New builds (balancer.DST).
package remoting

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/netguard"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// TCPBackend demonstrates GPU remoting over an actual socket: it accepts
// framed rpcproto connections and executes the marshalled CUDA calls
// against a simulated device, returning each call's result together with
// the virtual time it consumed. One simulated device (and one virtual
// clock) exists per connection — the session is a self-contained remote
// GPU.
type TCPBackend struct {
	Spec gpu.Spec

	// ReadTimeout and WriteTimeout, when nonzero, arm per-operation
	// deadlines on every accepted connection so a wedged or vanished
	// client cannot pin a session goroutine forever. These guard the
	// real socket, not the simulated device behind it.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

// Serve accepts connections until the listener closes.
func (b *TCPBackend) Serve(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		go func() { //lint:allow rawgo -- real network concurrency at the system boundary: each connection owns a private kernel and shares no simulator state
			defer conn.Close()
			_ = b.ServeConn(netguard.WithDeadlines(conn, b.ReadTimeout, b.WriteTimeout))
		}()
	}
}

// ServeConn runs one remoting session over rw. The session reuses one
// decode buffer, one call struct and one encode buffer for its entire
// lifetime, so steady-state call handling does not allocate in the framing
// layer. A panic anywhere in the session — the simulator's own checks
// included — ends that session with the panic as its error: the process
// serves other connections, and one session must not take them down.
func (b *TCPBackend) ServeConn(rw io.ReadWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("remoting: session panicked: %v", r)
		}
	}()
	sess := newTCPSession(b.Spec)
	defer sess.k.Close() // unwinds the session process, parked on its next call
	fr := rpcproto.NewFrameReader(rw)
	var call rpcproto.Call
	var out []byte // the session's encode buffer, one reply at a time
	for {
		body, err := fr.Next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := rpcproto.DecodeCallInto(&call, body, &fr.Names); err != nil {
			return fmt.Errorf("remoting: %w", err)
		}
		reply := sess.execute(&call)
		if call.NonBlocking {
			continue
		}
		if out, err = rpcproto.AppendReply(out[:0], reply); err != nil {
			return err
		}
		if _, err := rw.Write(out); err != nil {
			return err
		}
		if call.ID == cuda.CallThreadExit {
			return nil
		}
	}
}

// tcpSession is one connection's backend process: a private kernel and
// simulated device, and on them what every simulated backend runs — a CUDA
// runtime with one thread, bound to the session process, behind the shared
// verbatim executor. It validates pointers, streams and events exactly as
// the other backends do, because it is the same code.
type tcpSession struct {
	k     *sim.Kernel
	dev   *gpu.Device
	calls *sim.Queue[*rpcproto.Call]
	reply rpcproto.Reply // the current call's outcome, reused across calls
}

func newTCPSession(spec gpu.Spec) *tcpSession {
	k := sim.NewKernel(1)
	s := &tcpSession{k: k, dev: gpu.NewDevice(k, spec, 0), calls: sim.NewQueue[*rpcproto.Call](k)}
	k.Go("session", s.serve)
	return s
}

// execute hands one call to the session process and runs the private kernel
// until the process has finished it. A blocking call parks the process, so
// the virtual clock advances to its completion; a non-blocking one returns
// with its device work still pending, to overlap with whatever comes next.
// The reply is valid until the next execute.
func (s *tcpSession) execute(call *rpcproto.Call) *rpcproto.Reply {
	s.calls.Put(call)
	s.k.Run()
	return &s.reply
}

// serve is the session process. Its thread takes the application id of the
// connection's first call, which is what the device attributes service to.
func (s *tcpSession) serve(p *sim.Proc) {
	call := s.calls.Get(p)
	appID := int(call.AppID)
	t := cuda.NewRuntime(s.k, []*gpu.Device{s.dev}, cuda.DefaultConfig()).NewThread(p, appID)
	for ; ; call = s.calls.Get(p) {
		s.reply = rpcproto.Reply{}
		rpcproto.Execute(t, call, &s.reply)
		if call.ID == cuda.CallThreadExit {
			*s.reply.AttachFeedback() = rpcproto.Feedback{
				AppID:    call.AppID,
				Kind:     call.KernelName,
				ExecTime: p.Now(),
				GPUTime:  s.dev.AppService(appID),
				XferTime: s.dev.AppTransferTime(appID),
			}
		}
		// Return to execute now: activations of still-running device work
		// stay queued on the kernel for the next call's Run.
		s.k.Stop()
	}
}
