package rpcproto

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// FuzzDecode hammers the frame decoder with arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode to an identical decode
// (decode/encode/decode is a fixed point).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{frameCall})
	f.Add([]byte{frameReply})
	sampleFrame, _ := EncodeCall(sampleCall())
	errFrame, _ := AppendReply(nil, &Reply{Seq: 9, Err: "cuda: out of memory"})
	f.Add(sampleFrame[4:])
	f.Add(errFrame[4:])
	f.Add([]byte{frameCall, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, body []byte) {
		msg, err := Decode(body)
		if err != nil {
			return
		}
		var reenc []byte
		switch v := msg.(type) {
		case *Call:
			reenc, err = EncodeCall(v)
		case *Reply:
			reenc, err = AppendReply(nil, v)
		default:
			t.Fatalf("unexpected decode type %T", msg)
		}
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		again, err := Decode(reenc[4:])
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		reenc2 := append([]byte(nil), reenc...)
		switch v := again.(type) {
		case *Call:
			reenc2, _ = EncodeCall(v)
		case *Reply:
			reenc2, _ = AppendReply(nil, v)
		}
		if !bytes.Equal(reenc, reenc2) {
			t.Fatal("encode/decode is not a fixed point")
		}
	})
}

// FuzzCallRoundTrip builds a Call from arbitrary field values and checks
// that AppendCall → DecodeCallInto is the identity on every field, that
// re-encoding the decoded call reproduces the wire bytes exactly, and that so
// does marshalling its Op back with SetOp. Floats are compared by their IEEE
// bit patterns so NaN payloads must survive the trip too (the wire format
// stores raw Float64bits).
func FuzzCallRoundTrip(f *testing.F) {
	s := sampleCall()
	f.Add(uint32(s.ID), s.Seq, s.AppID, s.TenantID, s.Weight, s.Dev, s.Stream,
		uint8(s.Dir), s.Bytes, s.PtrID, s.PtrSize, s.PtrDev, s.KernelName,
		s.Compute, s.MemTraffic, s.Occupancy, s.NonBlocking, s.Event, s.Event2)
	f.Add(uint32(0), uint64(0), int64(0), int64(0), int32(0), int32(0), int32(0),
		uint8(0), int64(0), int64(0), int64(0), int32(0), "",
		0.0, math.NaN(), math.Inf(-1), false, int32(-1), int32(-1))
	f.Fuzz(func(t *testing.T, id uint32, seq uint64, appID, tenantID int64,
		weight, dev, stream int32, dir uint8, nbytes, ptrID, ptrSize int64,
		ptrDev int32, kernel string, compute, memTraffic, occupancy float64,
		nonBlocking bool, event, event2 int32) {
		in := &Call{
			ID: cuda.CallID(id), Seq: seq, AppID: appID, TenantID: tenantID,
			Weight: weight, Dev: dev, Stream: stream, Dir: cuda.Dir(dir),
			Bytes: nbytes, PtrID: ptrID, PtrSize: ptrSize, PtrDev: ptrDev,
			KernelName: kernel, Compute: compute, MemTraffic: memTraffic,
			Occupancy: occupancy, NonBlocking: nonBlocking,
			Event: event, Event2: event2,
		}
		wire, err := AppendCall(nil, in)
		if err != nil {
			if len(kernel) > math.MaxUint16 {
				return // oversized strings refuse to encode, by design
			}
			t.Fatalf("AppendCall: %v", err)
		}
		var out Call
		if err := DecodeCallInto(&out, wire[4:], nil); err != nil {
			t.Fatalf("DecodeCallInto: %v", err)
		}
		// reflect.DeepEqual is false for NaN, so compare floats by bits and
		// everything else by normal equality.
		if out.ID != in.ID || out.Seq != in.Seq || out.AppID != in.AppID ||
			out.TenantID != in.TenantID || out.Weight != in.Weight ||
			out.Dev != in.Dev || out.Stream != in.Stream || out.Dir != in.Dir ||
			out.Bytes != in.Bytes || out.PtrID != in.PtrID ||
			out.PtrSize != in.PtrSize || out.PtrDev != in.PtrDev ||
			out.KernelName != in.KernelName ||
			out.NonBlocking != in.NonBlocking ||
			out.Event != in.Event || out.Event2 != in.Event2 {
			t.Fatalf("round trip changed a field:\n in %+v\nout %+v", in, out)
		}
		for _, p := range [][2]float64{
			{in.Compute, out.Compute},
			{in.MemTraffic, out.MemTraffic},
			{in.Occupancy, out.Occupancy},
		} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("float bits changed: %x -> %x",
					math.Float64bits(p[0]), math.Float64bits(p[1]))
			}
		}
		wire2, err := AppendCall(nil, &out)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatal("re-encode of decoded call is not byte-identical")
		}
		// The executor's op is the frame's operands, all of them: marshalled
		// back, it leaves the call as it was, bit for bit.
		op := out.Op()
		out.SetOp(&op)
		if wire3, _ := AppendCall(nil, &out); !bytes.Equal(wire, wire3) {
			t.Fatalf("SetOp(Op()) changed the call: %+v", out)
		}
	})
}

// FuzzReplyRoundTrip does the same for replies, including the optional
// scheduling-feedback block.
func FuzzReplyRoundTrip(f *testing.F) {
	f.Add(uint64(9), "cuda: out of memory", int64(0), int64(0), int32(0),
		int32(0), int32(0), int32(0), int64(0),
		false, int64(0), "", int32(0), int64(0), int64(0), int64(0), 0.0, 0.0)
	f.Add(uint64(1), "", int64(7), int64(4096), int32(1),
		int32(5), int32(2), int32(3), int64(1234),
		true, int64(7), "MC", int32(1), int64(10), int64(20), int64(30), 0.5, 0.9)
	f.Fuzz(func(t *testing.T, seq uint64, errStr string,
		ptrID, ptrSize int64, ptrDev, stream, count, event int32, elapsed int64,
		hasFB bool, fbApp int64, fbKind string, fbGID int32,
		fbExec, fbGPU, fbXfer int64, fbBW, fbUtil float64) {
		in := &Reply{
			Seq: seq, Err: errStr, PtrID: ptrID, PtrSize: ptrSize,
			PtrDev: ptrDev, Stream: stream, Count: count, Event: event,
			Elapsed: elapsed,
		}
		if hasFB {
			in.Feedback = &Feedback{
				AppID: fbApp, Kind: fbKind, GID: fbGID,
				ExecTime: sim.Time(fbExec), GPUTime: sim.Time(fbGPU),
				XferTime: sim.Time(fbXfer), MemBW: fbBW, GPUUtil: fbUtil,
			}
		}
		wire, err := AppendReply(nil, in)
		if err != nil {
			if len(errStr) > math.MaxUint16 || len(fbKind) > math.MaxUint16 {
				return
			}
			t.Fatalf("AppendReply: %v", err)
		}
		var out Reply
		if err := DecodeReplyInto(&out, wire[4:], nil); err != nil {
			t.Fatalf("DecodeReplyInto: %v", err)
		}
		wire2, err := AppendReply(nil, &out)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatal("re-encode of decoded reply is not byte-identical")
		}
		if (out.Feedback != nil) != hasFB {
			t.Fatalf("feedback presence changed: want %v", hasFB)
		}
		if hasFB && math.Float64bits(out.Feedback.MemBW) != math.Float64bits(fbBW) {
			t.Fatal("feedback float bits changed")
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams through ReadFrame, which is
// FrameReader.Next on a fresh reader: the TCP backend's reader as well.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	seed, _ := EncodeCall(sampleCall())
	f.Add(seed)
	f.Add([]byte{1, 0, 0, 0, frameCall})
	f.Fuzz(func(t *testing.T, stream []byte) {
		body, err := ReadFrame(bytes.NewReader(stream))
		if err != nil {
			return
		}
		if len(body) == 0 || len(body) > maxFrame {
			t.Fatalf("accepted frame of %d bytes", len(body))
		}
	})
}
