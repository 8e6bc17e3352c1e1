package tcp

import (
	"testing"
	"time"

	"paso/internal/transport"
)

func benchPair(b *testing.B) (*Endpoint, *Endpoint) {
	b.Helper()
	opts := Options{HeartbeatInterval: 50 * time.Millisecond, FailTimeout: time.Second}
	a, err := Listen(1, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Listen(2, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	a.AddPeer(2, c.Addr())
	c.AddPeer(1, a.Addr())
	b.Cleanup(func() {
		a.Close()
		c.Close()
	})
	return a, c
}

func benchSendRecv(b *testing.B, size int) {
	a, c := benchPair(b)
	payload := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			_ = a.Send(2, payload)
		}
	}()
	received := 0
	for received < b.N {
		it, ok := <-c.Recv()
		if !ok {
			b.Fatal("stream closed")
		}
		if it.Kind == transport.KindMsg {
			received++
		}
	}
}

func BenchmarkTCPSend128(b *testing.B) { benchSendRecv(b, 128) }
func BenchmarkTCPSend4K(b *testing.B)  { benchSendRecv(b, 4096) }
func BenchmarkTCPSend64K(b *testing.B) { benchSendRecv(b, 65536) }

// BenchmarkTCPPingPong sends one frame at a time and waits for the echo:
// two legs per op over an idle link, the path a frame takes when nothing
// is queued ahead of it (written inline by its sender).
func BenchmarkTCPPingPong(b *testing.B) {
	a, c := benchPair(b)
	payload := make([]byte, 128)
	go func() {
		for it := range c.Recv() {
			if it.Kind == transport.KindMsg {
				_ = c.Send(1, it.Payload)
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(2, payload); err != nil {
			b.Fatal(err)
		}
		for it := range a.Recv() {
			if it.Kind == transport.KindMsg {
				break
			}
		}
	}
}
