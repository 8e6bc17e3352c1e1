package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/placement"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
	"paso/internal/vsync"
)

// The replays push a workload's own inputs through one layer's public
// functions with nothing else running, so a layer's cost can be read apart
// from the queueing the full cluster adds. Each runs for replayFor.
const replayFor = 700 * time.Millisecond

// sampleOps returns the first insert of client 0's sequence and the first
// lookup on the same class: the tuple and template shapes the workload moves.
func sampleOps(in *inputs) (t tuple.Tuple, tpl tuple.Template) {
	seq := in.seqs[0][0]
	cls := -1
	for _, o := range seq {
		if o.kind == opInsert {
			t, cls = o.tup, o.class
			break
		}
	}
	for _, o := range seq {
		if o.kind != opInsert && o.class == cls {
			return t, o.tpl
		}
	}
	return t, tpl
}

// timed runs f in batches for a quarter of replayFor and returns its mean
// cost and mean allocations per call.
func timed(f func()) (ns, allocs float64) {
	const batch = 256
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	n := 0
	for time.Since(begin) < replayFor/4 {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

var sink int // keeps replayed results alive

// replayTuple times the codec and the matcher on the workload's tuple.
func replayTuple(in *inputs, out map[string]float64) {
	t, tpl := sampleOps(in)
	t = t.WithID(tuple.ID{Origin: 1, Seq: 1})
	enc := tuple.EncodeTuple(t)
	out["tuple.encoded_bytes"] = float64(len(enc))
	out["tuple.encode_ns"], out["tuple.encode_allocs"] = timed(func() { sink += len(tuple.EncodeTuple(t)) })
	out["tuple.decode_ns"], out["tuple.decode_allocs"] = timed(func() {
		d, err := tuple.DecodeTupleAlias(enc)
		if err == nil {
			sink += d.Arity()
		}
	})
	// The template is of the tuple's own class; a range template may or may
	// not contain the key, and both are work a search does.
	out["tuple.match_ns"], out["tuple.match_allocs"] = timed(func() {
		if tpl.Matches(t) {
			sink++
		}
	})
}

// replayStorage builds a store of the workload's kind holding one class's
// share of the preload, then times the three store operations on it.
func replayStorage(in *inputs, out map[string]float64) error {
	s := in.spec
	st, err := storage.New(s.store, 1)
	if err != nil {
		return err
	}
	gen := tuple.NewIDGen(1)
	seq := uint64(0)
	for _, o := range in.preload {
		if o.class == 0 {
			seq++
			st.Insert(seq, o.tup.WithID(gen.Next()))
		}
	}
	var lookups []tuple.Template
	var inserts []tuple.Tuple
	for _, o := range in.seqs[0][0] {
		switch {
		case o.kind == opInsert:
			inserts = append(inserts, o.tup)
		case s.classes == 1 || o.class == 0:
			lookups = append(lookups, o.tpl)
		}
	}
	if len(lookups) == 0 {
		lookups = append(lookups, tuple.NewTemplate(tuple.Eq(tuple.String(in.names[0])), tuple.Any(tuple.KindInt)))
	}
	i := 0
	before := st.Stats()
	out["storage.read_ns"], _ = timed(func() {
		if _, ok := st.Read(lookups[i%len(lookups)]); ok {
			sink++
		}
		i++
	})
	after := st.Stats()
	if reads := after.Reads - before.Reads; reads > 0 {
		out["storage.probes_per_read"] = float64(after.ReadProbes-before.ReadProbes) / float64(reads)
	}
	// Insert and remove alternate so the store keeps its size.
	var insNs, remNs time.Duration
	n := 0
	for begin := time.Now(); time.Since(begin) < replayFor/2; n++ {
		t0 := time.Now()
		seq++
		st.Insert(seq, inserts[n%len(inserts)].WithID(gen.Next()))
		t1 := time.Now()
		if _, ok := st.Remove(lookups[n%len(lookups)]); ok {
			sink++
		}
		insNs += t1.Sub(t0)
		remNs += time.Since(t1)
	}
	out["storage.insert_ns"] = float64(insNs) / float64(n)
	out["storage.remove_ns"] = float64(remNs) / float64(n)
	return nil
}

// replayPlacement times a cold placement assignment over the workload's
// classes and reports how evenly coordinators spread.
func replayPlacement(in *inputs, out map[string]float64) {
	ids := make([]class.ID, len(in.names))
	for i, n := range in.names {
		ids[i] = class.ID(n)
	}
	live := []transport.NodeID{1, 2, 3}
	var a *placement.Assignment
	ns, _ := timed(func() { a = placement.New(ids, lambda).Assign(live) }) // New: Assign memoises per policy
	out["placement.assign_us"] = ns / 1e3
	most, total := 0, 0
	for _, n := range placement.CoordCounts(a) {
		total += n
		most = max(most, n)
	}
	out["placement.coord_spread"] = float64(most) / (float64(total) / float64(len(live)))
}

// nopHandler is the group-layer application of the vsync replay: it accepts
// every delivery and keeps no state.
type nopHandler struct{}

func (nopHandler) Deliver(string, transport.NodeID, []byte) ([]byte, bool) { return nil, false }
func (nopHandler) Snapshot(string) []byte                                  { return nil }
func (nopHandler) Install(string, []byte)                                  {}
func (nopHandler) Evict(string)                                            {}
func (nopHandler) ViewChange(string, []transport.NodeID)                   {}
func (nopHandler) AppMessage(transport.NodeID, []byte)                     {}

// replayVsync drives Node.Gcast alone: three nodes over loopback TCP, a
// group with λ+1 members, the workload's client count and payload size, and
// a handler that does nothing. What it sustains bounds what the full
// cluster can.
func replayVsync(in *inputs, payloadBytes int, out map[string]float64) error {
	eps, err := listenMesh(machines, obs.Nop())
	if err != nil {
		return err
	}
	nodes := make([]*vsync.Node, machines)
	for i, ep := range eps {
		nodes[i] = vsync.NewNode(ep, nopHandler{})
	}
	defer func() {
		for i, n := range nodes {
			n.Close()
			eps[i].Close()
		}
	}()
	const group = "wg/replay"
	for _, n := range nodes[:lambda+1] {
		if err := n.Join(group); err != nil {
			return fmt.Errorf("vsync replay: join: %w", err)
		}
	}
	payload := make([]byte, payloadBytes)
	clients := in.spec.clients
	lats := make([][]float64, clients)
	var failed atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := nodes[c%machines]
			for time.Since(begin) < replayFor {
				t0 := time.Now()
				if _, err := n.Gcast(group, payload); err != nil {
					failed.Add(1)
					return
				}
				lats[c] = append(lats[c], float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)
	if failed.Load() > 0 {
		return fmt.Errorf("vsync replay: %d clients saw a gcast fail", failed.Load())
	}
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	out["vsync.gcast_ms_p50"] = percentile(all, 0.5)
	out["vsync.gcasts_per_s"] = float64(len(all)) / elapsed.Seconds()
	return nil
}

// replayTCP measures the transport alone between two endpoints at the
// workload's mean frame size: the round trip of one frame answered by one
// frame, then how many frames per second one direction carries.
func replayTCP(frameBytes int, out map[string]float64) error {
	eps, err := listenMesh(2, obs.Nop())
	if err != nil {
		return err
	}
	a, b := eps[0], eps[1]
	defer a.Close()
	defer b.Close()
	frame := make([]byte, max(frameBytes, 2)) // one-byte frames are the end markers below
	recv := func(ep transport.Endpoint) error {
		for it := range ep.Recv() {
			if it.Kind == transport.KindMsg {
				return nil
			}
		}
		return transport.ErrClosed
	}

	// Echo server on b for the round-trip phase; it stops at the first
	// one-byte frame.
	echoDone := make(chan error, 1)
	go func() {
		for it := range b.Recv() {
			if it.Kind != transport.KindMsg {
				continue
			}
			if len(it.Payload) == 1 {
				echoDone <- nil
				return
			}
			if err := b.Send(a.ID(), it.Payload); err != nil {
				echoDone <- err
				return
			}
		}
		echoDone <- transport.ErrClosed
	}()
	var rtts []float64
	for begin := time.Now(); time.Since(begin) < replayFor; {
		t0 := time.Now()
		if err := a.Send(b.ID(), frame); err != nil {
			return err
		}
		if err := recv(a); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if err := a.Send(b.ID(), []byte{0}); err != nil {
		return err
	}
	if err := <-echoDone; err != nil {
		return err
	}
	sort.Float64s(rtts)
	out["tcp.rtt_us_p50"] = percentile(rtts, 0.5)

	// One-way stream: a sends as fast as the send queue lets it, b counts.
	// A final one-byte frame marks the end; FIFO per peer puts it last.
	counted := make(chan int, 1)
	go func() {
		n := 0
		for it := range b.Recv() {
			if it.Kind != transport.KindMsg {
				continue
			}
			if len(it.Payload) == 1 {
				break
			}
			n++
		}
		counted <- n
	}()
	begin := time.Now()
	for time.Since(begin) < replayFor {
		for i := 0; i < 64; i++ {
			if err := a.Send(b.ID(), frame); err != nil {
				return err
			}
		}
	}
	if err := a.Send(b.ID(), []byte{0}); err != nil {
		return err
	}
	n := <-counted
	out["tcp.frames_per_s"] = float64(n) / time.Since(begin).Seconds()
	return nil
}
