package main

import (
	"testing"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// The endpoint decorator must still be a transport.OwnedSender, or the node
// above it falls back to the copying send path and the traced run measures a
// different program; and it must count exactly the frames the transport
// itself reports sending.
func TestTracedEndpointKeepsOwnedSenderAndCountsFrames(t *testing.T) {
	o := obs.Nop()
	eps, err := listenMesh(2, o)
	if err != nil {
		t.Fatal(err)
	}
	a, b := eps[0], eps[1]
	defer a.Close()
	defer b.Close()
	te := &tracedEndpoint{Endpoint: a, tr: newTracer(), m: 0, send: newTiming()}

	var ep transport.Endpoint = te
	owned, ok := ep.(transport.OwnedSender) // the probe vsync.NewNodeOpts makes
	if !ok {
		t.Fatal("the decorated endpoint does not implement transport.OwnedSender")
	}
	if te.ID() != a.ID() || te.Recv() != a.Recv() {
		t.Fatal("the decorator does not pass ID and Recv through")
	}

	const n = 200
	payloadBytes := 0
	for i := 0; i < n; i++ {
		if err := ep.Send(b.ID(), []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		buf := append(transport.GetBuf(), 4, 5, 6, 7, 8)
		if err := owned.SendOwned(b.ID(), buf); err != nil {
			t.Fatal(err)
		}
		payloadBytes += 3 + 5
		// To self: short-circuits the socket, so it is not a wire frame.
		if err := ep.Send(a.ID(), []byte{9}); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	timeout := time.After(10 * time.Second)
	for got < 2*n {
		select {
		case it := <-b.Recv():
			if it.Kind == transport.KindMsg {
				got++
			}
		case <-timeout:
			t.Fatalf("peer received %d of %d frames", got, 2*n)
		}
	}
	// The writer counts a batch after flushing it; give the last one a moment.
	sent := o.Counter("transport.msgs.sent")
	for deadline := time.Now().Add(5 * time.Second); sent.Value() < 2*n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if te.frames.Load() != 2*n || sent.Value() != 2*n {
		t.Errorf("decorator counted %d frames, transport.msgs.sent is %d, want %d each", te.frames.Load(), sent.Value(), 2*n)
	}
	if te.bytes.Load() != int64(payloadBytes) || o.Counter("transport.bytes.sent").Value() != int64(payloadBytes) {
		t.Errorf("decorator counted %d bytes, transport.bytes.sent is %d, want %d each",
			te.bytes.Load(), o.Counter("transport.bytes.sent").Value(), payloadBytes)
	}
	if calls := te.send.calls.Load(); calls != 3*n {
		t.Errorf("decorator timed %d sends, want %d", calls, 3*n)
	}
}
