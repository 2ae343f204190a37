package core

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/rpcproto"
	"repro/internal/sim"
)

// A killed backend still owns the non-blocking calls it receives: the frontend
// forgot each frame at issue (rpcproto.Pool), so the backend returns it to the
// pool whether the kill landed while the call executed or before the call
// arrived.
func TestKilledBackendRecyclesNonBlockingFrames(t *testing.T) {
	c, err := New(Config{Seed: 1, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}, Mode: ModeStrings})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pool := &rpcproto.Pool{}
	var sent []*rpcproto.Call
	c.K.Go("app", func(p *sim.Proc) {
		conn := rpcproto.NewConn(c.K, rpcproto.SharedMemLink)
		conn.SetPools(pool, pool)
		c.accept(0, conn)
		ep := conn.A()
		ep.Send(p, &rpcproto.Call{ID: cuda.CallSetDevice, Seq: 1, AppID: 1, TenantID: 1, Weight: 1}, 0)
		if r := ep.Recv(p).(*rpcproto.Reply); r.Err != "" {
			t.Errorf("handshake: %s", r.Err)
			return
		}
		issue := func(id cuda.CallID) {
			m := &rpcproto.Call{ID: id, Seq: uint64(len(sent) + 2), NonBlocking: true}
			if id == cuda.CallLaunch {
				m.KernelName, m.Compute, m.Occupancy = "k", 48e7, 1
			}
			sent = append(sent, m)
			ep.Send(p, m, 0)
		}
		issue(cuda.CallLaunch)
		issue(cuda.CallDeviceSync) // still waiting for the kernel when the kill lands
		p.Sleep(100)
		c.KillGPU(0)
		issue(cuda.CallLaunch) // swallowed by the dead backend
		issue(cuda.CallDeviceSync)
	})
	c.coord.RunUntil(sim.Second)
	free := map[*rpcproto.Call]bool{}
	for range 2 * len(sent) {
		free[pool.GetCall()] = true
	}
	for i, m := range sent {
		if !free[m] {
			t.Errorf("non-blocking call %d never went back to the pool", i)
		}
	}
}

// A connection goes back to its kernel's pool once the session has exited and
// the frontend has read the cudaThreadExit reply — and never when the backend
// was killed under the exit, nor when the frontend runs under recovery, though
// the frontend closes its side in both and the session itself is reused.
func TestConnReturnsOnlyAfterACleanExit(t *testing.T) {
	for _, tc := range []struct {
		name           string
		kill, recovery bool
		want           bool // the connection is the pool's next
	}{{"clean", false, false, true}, {"killed", true, false, false}, {"recovery", false, true, false}} {
		c, err := New(Config{Seed: 1, Nodes: []NodeConfig{{Devices: []gpu.Spec{gpu.TeslaC2050}}}, Mode: ModeStrings})
		if err != nil {
			t.Fatal(err)
		}
		e := c.envs[0]
		var exit *rpcproto.Reply
		conn := e.conns.Get(c.K, rpcproto.SharedMemLink)
		c.K.Go("app", func(p *sim.Proc) {
			conn.SetPools(&e.pool, &e.pool)
			c.accept(0, conn)
			ep := conn.A()
			if tc.recovery {
				ep.RetainFrames()
			}
			ep.Send(p, &rpcproto.Call{ID: cuda.CallSetDevice, Seq: 1, AppID: 1, TenantID: 1, Weight: 1}, 0)
			ep.Recv(p)
			ep.Send(p, &rpcproto.Call{ID: cuda.CallLaunch, Seq: 2, NonBlocking: true, KernelName: "k", Compute: 1e9, Occupancy: 1}, 0)
			ep.Send(p, &rpcproto.Call{ID: cuda.CallThreadExit, Seq: 3}, 0) // waits out the ~1 ms kernel
			if tc.kill {
				p.Sleep(500)
				c.KillGPU(0)
			}
			p.Sleep(sim.Second) // the exit reply is in by then, unless the backend was killed
			if ep.InboxLen() > 0 {
				exit = ep.Recv(p).(*rpcproto.Reply)
			}
			ep.Close()
		})
		c.coord.RunUntil(10 * sim.Second)
		if (exit != nil) == tc.kill || len(e.sessions) != 1 {
			t.Errorf("%s: exit reply %+v, %d sessions to reuse; want a reply unless killed, and the session", tc.name, exit, len(e.sessions))
		}
		if got := e.conns.Get(c.K, rpcproto.SharedMemLink) == conn; got != tc.want {
			t.Errorf("%s: connection back in the pool %v, want %v", tc.name, got, tc.want)
		}
		c.Close()
	}
}
