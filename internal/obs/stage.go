package obs

// Per-stage latency histogram names. An operation crosses the pipeline in
// this order; each stage records wall-clock seconds into the registry
// histogram named here, so two snapshots taken at different offered loads
// can be diffed to point at the stage whose latency grows fastest.
const (
	// StageClientQueue is the wait between a client calling into the node
	// and the event loop starting the request (the node's inbox queue).
	StageClientQueue = "stage.client.queue.seconds"
	// StageEncode is wire encoding of an outgoing message.
	StageEncode = "stage.encode.seconds"
	// StageSendQueue is the wait a frame spends in a peer's bounded send
	// queue before the writer goroutine picks it up. It covers backlog
	// frames only: a frame its sender writes inline on an idle link never
	// enters the queue and records nothing here.
	StageSendQueue = "stage.sendq.wait.seconds"
	// StageSocketWrite is one socket write: the writer's batched write
	// plus flush, or an inline frame's writev.
	StageSocketWrite = "stage.socket.write.seconds"
	// StageOrder is sequencing at the coordinator: from accepting a cast
	// to gathering the full ack quorum.
	StageOrder = "stage.order.seconds"
	// StageDeliver is handler execution for one ordered event on a member.
	StageDeliver = "stage.deliver.seconds"
	// StageStoreApply is the storage mutation inside the delivery handler.
	StageStoreApply = "stage.store.apply.seconds"
	// StageLeaseServe is a member answering an epoch-fenced leased read
	// from its local store — the sequencer-free fast path, which skips the
	// order and deliver stages entirely (PROTOCOL.md, "Leased reads").
	StageLeaseServe = "stage.lease.serve.seconds"
)

// StageOrderNames lists the per-stage histogram names in pipeline order,
// the canonical ordering for rendering stage tables.
var StageOrderNames = []string{
	StageClientQueue,
	StageEncode,
	StageSendQueue,
	StageSocketWrite,
	StageOrder,
	StageDeliver,
	StageStoreApply,
	StageLeaseServe,
}

// StageSnapshots extracts the per-stage histogram snapshots from a
// registry, keyed by stage name. Stages with no histogram yet are absent.
func StageSnapshots(reg *Registry) map[string]HistSnapshot {
	snap := reg.Snapshot()
	out := make(map[string]HistSnapshot, len(StageOrderNames))
	for _, name := range StageOrderNames {
		if h, ok := snap.Histograms[name]; ok {
			out[name] = h
		}
	}
	return out
}

// StageShort maps a stage histogram name to the compact label used in
// tables ("client.queue", "order", ...).
func StageShort(name string) string {
	const pre, suf = "stage.", ".seconds"
	if len(name) > len(pre)+len(suf) && name[:len(pre)] == pre && name[len(name)-len(suf):] == suf {
		return name[len(pre) : len(name)-len(suf)]
	}
	return name
}
