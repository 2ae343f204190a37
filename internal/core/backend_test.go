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
