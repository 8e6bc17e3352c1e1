package tcp

import (
	"cmp"
	"io"
	"net"
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

// BenchmarkTCPBacklog measures the drain path: each round sends a burst
// of frames to a peer that is not reading — more than the link buffers
// hold, so most of them wait in the send queue — and then reads them all,
// while the writer drains the queue. 64KiB sends 128 frames of 64 KiB a
// round; 128B sends 1000 frames of 128 B a round, with both socket buffers
// set to 16 KiB so that small frames queue too (a burst stays under the
// queue's 1024 frames, so Send never waits for the reader). It reports the
// frames each socket write carried, inline writes included.
func BenchmarkTCPBacklog(b *testing.B) {
	b.Run("64KiB", func(b *testing.B) { benchBacklog(b, 64<<10, 128, 0) })
	b.Run("128B", func(b *testing.B) { benchBacklog(b, 128, 1000, 16<<10) })
}

// benchBacklog runs BenchmarkTCPBacklog with bursts of burst frames of
// size bytes; sockBuf, when non-zero, sets both socket buffers (else the
// receive buffer is 64 KiB and the send buffer the system's).
func benchBacklog(b *testing.B, size, burst, sockBuf int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{HeartbeatInterval: time.Hour, FailTimeout: time.Hour}
	if sockBuf > 0 {
		opts.WrapConn = func(_ transport.NodeID, c net.Conn) net.Conn {
			_ = c.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(sockBuf)
			return c
		}
	}
	e, err := Listen(1, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	e.AddPeer(2, ln.Addr().String())
	b.Cleanup(func() {
		e.Close()
		ln.Close()
	})
	payload := make([]byte, size)
	if err := e.Send(2, payload); err != nil {
		b.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	_ = c.(*net.TCPConn).SetReadBuffer(cmp.Or(sockBuf, 64<<10))
	frame := make([]byte, frameHdrSize+len(payload))
	if _, err := io.ReadFull(c, frame[:frameHdrSize]); err != nil { // the hello
		b.Fatal(err)
	}
	if _, err := io.ReadFull(c, frame); err != nil {
		b.Fatal(err)
	}
	flushes, frames := e.cFlushes.Value(), e.cFlushFrames.Value()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		k := min(burst, b.N-sent)
		for i := 0; i < k; i++ {
			if err := e.Send(2, payload); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			if _, err := io.ReadFull(c, frame); err != nil {
				b.Fatal(err)
			}
		}
		sent += k
	}
	b.StopTimer()
	b.ReportMetric(float64(e.cFlushFrames.Value()-frames)/float64(e.cFlushes.Value()-flushes), "frames/flush")
}
