package interpose

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/balancer"
	"repro/internal/cuda"
	"repro/internal/rpcproto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stepOps is a sync application's calls, on the buffer the fake backend
// allocates, a select once bound (ignored) and one after exit (refused).
var stepOps = []cuda.Op{
	{ID: cuda.CallSetDevice},
	{ID: cuda.CallMalloc, Bytes: 1 << 20},
	{ID: cuda.CallMemcpy, Dir: cuda.H2D, Ptr: stepBuf, Bytes: 1 << 16},
	{ID: cuda.CallLaunch, Kernel: cuda.Kernel{Name: "k", Compute: 1, Occupancy: 1}},
	{ID: cuda.CallMemcpy, Dir: cuda.D2H, Ptr: stepBuf, Bytes: 1 << 16},
	{ID: cuda.CallSetDevice, Dev: 3},
	{ID: cuda.CallDeviceSync},
	{ID: cuda.CallFree, Ptr: stepBuf},
	{ID: cuda.CallThreadExit},
	{ID: cuda.CallSetDevice},
}

var stepBuf = cuda.Ptr{ID: 77, Size: 1 << 20}

// stepRun is what a run of stepOps leaves on both ends and in the trace.
type stepRun struct {
	ends     []sim.Time
	ptrs     []cuda.Ptr
	errs     []string
	received []*rpcproto.Call
	selected []balancer.Request
	feedback []*rpcproto.Feedback
	jsonl    string
}

// runStepOps makes stepOps on an interposer one hop from the mapper, over a
// shared-memory link that charges for the payload, with a recorder, through
// Issue and Await on a daemon.
func runStepOps(t *testing.T, async bool) stepRun {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Close()
	f := newFakeFabric(k)
	f.hop = rpcproto.SharedMemLink.Latency
	f.conn = rpcproto.NewConn(k, rpcproto.SharedMemLink) // the backend takes it when it first runs
	f.conn.SetPools(&f.pool, &f.pool)
	rec := trace.New()
	var out stepRun
	var ip Interposer
	ip.Init(f, k, 9, 3, 2, "MC", 0, async)
	ip.SetTrace(rec, 0)
	run(k, &ip, stepOps, func(i int, r cuda.Ret, err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		out.ends, out.ptrs, out.errs = append(out.ends, k.Now()), append(out.ptrs, r.Ptr), append(out.errs, msg)
	})
	out.received, out.selected, out.feedback = f.received, f.selected, f.feedback
	out.jsonl = string(rec.Snapshot().AppendJSONL(nil))
	return out
}

// digest is the sha256 of what the run left, frames and reports followed.
func (r stepRun) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%v %v %q %+v %s", r.ends, r.ptrs, r.errs, r.selected, r.jsonl)
	for _, c := range r.received {
		fmt.Fprintf(h, " %+v", *c)
	}
	for _, fb := range r.feedback {
		fmt.Fprintf(h, " %+v", *fb)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStepperMatchesBlockingCalls: an interposer a daemon drives through Issue
// and Await, under Strings and under Rain, leaves what the blocking methods it
// replaced left on a process: the calls the backend got, the instant each
// call ended with its result, the feedback relayed and the spans recorded —
// pinned as the digests of those runs.
func TestStepperMatchesBlockingCalls(t *testing.T) {
	for _, tc := range []struct {
		async bool
		want  string
	}{
		{true, "eea3d0f8e761b898aef7892aac380235bbdfb832460281c7cdd48f189ad5dbe4"},
		{false, "8c80750fbfa2f782217ba4fdc20cd3ae07112dfca9bd73d13582658dcd4661c5"},
	} {
		got := runStepOps(t, tc.async)
		if d := got.digest(); d != tc.want {
			t.Fatalf("async %v: digest %s, want %s, of %+v", tc.async, d, tc.want, got)
		}
		if len(got.received) != 8 || len(got.selected) != 1 || len(got.feedback) != 1 || got.errs[9] != cuda.ErrThreadExited.Error() {
			t.Fatalf("async %v: %d calls, %d selections, %d feedbacks, errors %q: the run did not go as scripted",
				tc.async, len(got.received), len(got.selected), len(got.feedback), got.errs)
		}
	}
}
