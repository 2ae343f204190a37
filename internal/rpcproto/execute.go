package rpcproto

import "repro/internal/cuda"

// Execute performs one marshalled call on t and stores the outcome in reply:
// the frame's op goes through t.Issue, the one place an opcode turns into a
// runtime call, and t's result comes back as the reply. It executes the call
// verbatim — no stream retargeting, no sync conversion, no pinned staging;
// backends that translate (the Context Packer) rewrite the call first and
// dispatch what is left through here. On a process's thread a blocking call
// parks the process, so Execute returns once the call has completed in
// virtual time; on a daemon's the call's waits are left to t.Pending.
func Execute(t *cuda.Thread, call *Call, reply *Reply) {
	op := call.Op()
	t.Issue(&op)
	reply.Seq = call.Seq
	reply.SetRet(t.Result())
}
