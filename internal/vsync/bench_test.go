package vsync

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/simnet"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
)

// benchGroup spins up n nodes all joined to one group.
func benchGroup(b *testing.B, n int) []*Node {
	b.Helper()
	net := simnet.New(cost.DefaultModel())
	nodes := make([]*Node, 0, n)
	for i := 1; i <= n; i++ {
		ep, err := net.Join(transport.NodeID(i))
		if err != nil {
			b.Fatal(err)
		}
		nd := NewNode(ep, newTestHandler())
		nodes = append(nodes, nd)
	}
	b.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
	for _, nd := range nodes {
		if err := nd.Join("bench"); err != nil {
			b.Fatal(err)
		}
	}
	return nodes
}

func benchGcast(b *testing.B, n int) {
	nodes := benchGroup(b, n)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nodes[n-1].Gcast("bench", payload)
		if err != nil || res.Fail {
			b.Fatal(err, res.Fail)
		}
	}
}

func BenchmarkGcastGroup2(b *testing.B) { benchGcast(b, 2) }
func BenchmarkGcastGroup4(b *testing.B) { benchGcast(b, 4) }
func BenchmarkGcastGroup8(b *testing.B) { benchGcast(b, 8) }

// BenchmarkGcastPipelined measures throughput with 8 concurrent issuers.
func BenchmarkGcastPipelined(b *testing.B) {
	nodes := benchGroup(b, 4)
	payload := make([]byte, 64)
	b.ResetTimer()
	b.SetParallelism(2)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := nodes[0].Gcast("bench", payload)
			if err != nil || res.Fail {
				b.Fatal(err, res.Fail)
			}
		}
	})
}

// BenchmarkGcastByOrigin measures one gcast's round trip over loopback TCP
// to a group of two whose sequencer (node 1) is a member, from each place a
// caller can sit: on the sequencer (run + ack), on the other member
// (request + run, completed on its own apply), and on a non-member (request
// + run + the member's direct reply). One caller, so ns/op is the latency of
// the message delays PROTOCOL.md "Completing a gcast" counts.
func BenchmarkGcastByOrigin(b *testing.B) {
	nodes := loopbackGroup(b)
	payload := make([]byte, 64)
	for _, origin := range []struct {
		name string
		id   transport.NodeID
	}{{"sequencer", 1}, {"member", 2}, {"non-member", 3}} {
		nd := nodes[origin.id]
		b.Run(origin.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := nd.Gcast("bench", payload); err != nil || res.Fail || res.GroupSize != 2 {
					b.Fatal(err, res)
				}
			}
		})
	}
}

// loopbackGroup starts nodes 1 to 3 over loopback TCP, with leased reads
// served, and joins nodes 1 (the sequencer) and 2 to the group "bench".
func loopbackGroup(b *testing.B) map[transport.NodeID]*Node {
	fab := tcp.NewLoopback(tcp.Options{HeartbeatInterval: 10 * time.Millisecond, FailTimeout: 2 * time.Second})
	nodes := make(map[transport.NodeID]*Node)
	for id := transport.NodeID(1); id <= 3; id++ {
		ep, err := fab.Join(id)
		if err != nil {
			b.Fatal(err)
		}
		nodes[id] = NewNode(ep, &leaseHandler{newTestHandler()})
	}
	b.Cleanup(func() {
		for id, nd := range nodes {
			nd.Close()
			fab.Crash(id)
		}
	})
	for _, id := range []transport.NodeID{1, 2} {
		if err := nodes[id].Join("bench"); err != nil {
			b.Fatal(err)
		}
	}
	return nodes
}

// BenchmarkGcastParallel is BenchmarkGcastByOrigin's member origin under
// contention: 32 callers share node 2, so calls queue for its event loop and
// their requests and replies coalesce into batches — the path one serial
// caller never takes.
func BenchmarkGcastParallel(b *testing.B) {
	nd := loopbackGroup(b)[2]
	payload := make([]byte, 64)
	b.SetParallelism((32 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res, err := nd.Gcast("bench", payload); err != nil || res.Fail {
				b.Error(err, res)
				return
			}
		}
	})
}

// BenchmarkLeaseRead measures one leased read's round trip over loopback TCP
// from the non-member node 3 to the member node 1: the caller's queue hand-off
// and reused timer, one request and one reply.
func BenchmarkLeaseRead(b *testing.B) {
	nodes := loopbackGroup(b)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, e1 := nodes[1].LiveView()
		if ids, e3 := nodes[3].LiveView(); len(ids) == 3 && e1 == e3 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("views did not agree")
		}
		time.Sleep(time.Millisecond)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[3].LeaseRead("bench", 1, payload, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWire is the envelope the codec benchmarks serialize: a traced
// small-tuple gcast, the hot message shape on the ordering path.
func benchWire() *wire {
	return &wire{
		Type: tCastReq, Group: "wg.job/3", ReqID: 0x9e3779b97f4a7c15,
		Origin: 3, Subject: 3, Trace: 0xCAFE, Span: 0xBEEF,
		Payload: []byte("0123456789abcdef0123456789abcdef0123456789abcdef"),
	}
}

// BenchmarkWireEncode measures the steady-state encode path as the
// transport exercises it: encode into a pooled buffer, recycle after the
// write. Gob baseline (recorded before its removal, same envelope):
// 5748 ns/op, 2288 B/op, 23 allocs/op.
func BenchmarkWireEncode(b *testing.B) {
	w := benchWire()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := encodeWire(w)
		b.SetBytes(int64(len(buf)))
		transport.PutBuf(buf)
	}
}

// BenchmarkWireDecode measures the receive path with a warmed decoder, as
// on a node's loop: the group name is interned, payload aliases the frame.
// Gob baseline: 29917 ns/op, 13312 B/op, 317 allocs/op.
func BenchmarkWireDecode(b *testing.B) {
	enc := encodeWire(benchWire())
	var dec wireDecoder
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeBatch8 covers the coalesced frame the outbox builds
// under load: eight tOrdered envelopes sharing one header.
func BenchmarkWireEncodeBatch8(b *testing.B) {
	batch := &wire{Type: tBatch}
	for i := 0; i < 8; i++ {
		batch.Batch = append(batch.Batch, wire{
			Type: tOrdered, Group: "wg.job/3", Seq: uint64(100 + i), Event: evData,
			ReqID: uint64(300 + i), Origin: 3, Payload: []byte("0123456789abcdef"),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := encodeWire(batch)
		b.SetBytes(int64(len(buf)))
		transport.PutBuf(buf)
	}
}

// BenchmarkJoinWithState measures g-join cost as a function of group state
// size (the O(ℓ) transfer of §5).
func BenchmarkJoinWithState(b *testing.B) {
	for _, entries := range []int{10, 1000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			nodes := benchGroup(b, 2)
			for i := 0; i < entries; i++ {
				if _, err := nodes[0].Gcast("bench", []byte(fmt.Sprintf("e%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nodes[1].Leave("bench"); err != nil {
					b.Fatal(err)
				}
				if err := nodes[1].Join("bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
