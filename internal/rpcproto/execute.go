package rpcproto

import "repro/internal/cuda"

// Execute performs one marshalled call against t and stores the outcome in
// reply: the exact inverse of the interposer's marshalling, and the only
// place an opcode turns into a cuda.Client method call. It executes the call
// verbatim — no stream retargeting, no sync conversion, no pinned staging;
// backends that translate (the Context Packer) rewrite the call first and
// dispatch what is left through here. Blocking calls park t's process, so
// Execute returns once the call has completed in virtual time.
func Execute(t cuda.Client, call *Call, reply *Reply) {
	reply.Seq = call.Seq
	ptr := cuda.Ptr{Dev: int(call.PtrDev), ID: call.PtrID, Size: call.PtrSize}
	stream := cuda.StreamID(call.Stream)
	event := cuda.EventID(call.Event)
	switch call.ID {
	case cuda.CallSetDevice:
		reply.SetError(t.SetDevice(int(call.Dev)))
	case cuda.CallDeviceCount:
		reply.Count = int32(t.DeviceCount())
	case cuda.CallMalloc:
		p, err := t.Malloc(call.Bytes)
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.PtrID, reply.PtrSize, reply.PtrDev = p.ID, p.Size, int32(p.Dev)
	case cuda.CallFree:
		reply.SetError(t.Free(ptr))
	case cuda.CallMemcpy:
		reply.SetError(t.Memcpy(call.Dir, ptr, call.Bytes))
	case cuda.CallMemcpyAsync:
		reply.SetError(t.MemcpyAsync(call.Dir, ptr, call.Bytes, stream))
	case cuda.CallLaunch:
		reply.SetError(t.Launch(cuda.Kernel{
			Name:       call.KernelName,
			Compute:    call.Compute,
			MemTraffic: call.MemTraffic,
			Occupancy:  call.Occupancy,
		}, stream))
	case cuda.CallStreamCreate:
		s, err := t.StreamCreate()
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.Stream = int32(s)
	case cuda.CallStreamSync:
		reply.SetError(t.StreamSynchronize(stream))
	case cuda.CallStreamDestroy:
		reply.SetError(t.StreamDestroy(stream))
	case cuda.CallDeviceSync:
		reply.SetError(t.DeviceSynchronize())
	case cuda.CallThreadExit:
		reply.SetError(t.ThreadExit())
	case cuda.CallEventCreate:
		e, err := t.EventCreate()
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.Event = int32(e)
	case cuda.CallEventRecord:
		reply.SetError(t.EventRecord(event, stream))
	case cuda.CallEventSync:
		reply.SetError(t.EventSynchronize(event))
	case cuda.CallEventElapsed:
		d, err := t.EventElapsed(event, cuda.EventID(call.Event2))
		if err != nil {
			reply.SetError(err)
			break
		}
		reply.Elapsed = int64(d)
	case cuda.CallEventDestroy:
		reply.SetError(t.EventDestroy(event))
	default:
		reply.SetError(cuda.ErrNotImplemented)
	}
}
