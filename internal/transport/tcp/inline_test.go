//go:build linux

package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paso/internal/faults"
	"paso/internal/transport"
)

// The inline send path: a frame leaves on its sender's goroutine while
// nothing to the peer is queued. These tests stand a bare TCP listener in
// for peer 2, so they can read the frame stream byte for byte and stop
// reading at will. Heartbeats are off (an hour apart), so every frame on
// the wire is one the test sent, and the first Send is what dials.

// tap counts inline writes by outcome across every connection it wraps.
type tap struct{ whole, short atomic.Int64 }

// tapConn passes inline writes through to the connection it wraps.
type tapConn struct {
	net.Conn
	t *tap
}

func (c *tapConn) TryWrite(hdr, payload []byte) (int, error) {
	n, err := c.Conn.(tryWriter).TryWrite(hdr, payload)
	if err == nil && n == len(hdr)+len(payload) {
		c.t.whole.Add(1)
	} else {
		c.t.short.Add(1)
	}
	return n, err
}

// wrapTap returns a WrapConn hook that counts into t, after inner (if any).
func wrapTap(t *tap, inner func(transport.NodeID, net.Conn) net.Conn) func(transport.NodeID, net.Conn) net.Conn {
	return func(id transport.NodeID, c net.Conn) net.Conn {
		if inner != nil {
			c = inner(id, c)
		}
		return &tapConn{Conn: c, t: t}
	}
}

// inlineSender starts endpoint 1 with peer 2 at a bare listener.
func inlineSender(t *testing.T, wrap func(transport.NodeID, net.Conn) net.Conn) (*Endpoint, net.Listener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e, err := Listen(1, "127.0.0.1:0", Options{HeartbeatInterval: time.Hour, FailTimeout: time.Hour, WrapConn: wrap})
	if err != nil {
		t.Fatal(err)
	}
	e.AddPeer(2, ln.Addr().String())
	t.Cleanup(func() {
		e.Close()
		ln.Close()
	})
	return e, ln
}

// accept takes the endpoint's next connection to the bare listener. A
// small receive buffer keeps the link's capacity (receive plus send
// buffer) well under the big frames the tests send.
func accept(t *testing.T, ln net.Listener) net.Conn {
	t.Helper()
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
	c, err := ln.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	_ = c.(*net.TCPConn).SetReadBuffer(64 << 10)
	t.Cleanup(func() { c.Close() })
	return c
}

// waitPeer polls until cond holds of peer id's send state.
func waitPeer(t *testing.T, e *Endpoint, id transport.NodeID, what string, cond func(p *peer) bool) {
	t.Helper()
	p := (*e.peers.Load())[id]
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		ok := cond(p)
		p.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// idle: the next frame to the peer is written inline.
func idle(p *peer) bool { return len(p.pending) == 0 && p.tw != nil }

// expectFrame reads the next frame and checks its payload.
func expectFrame(t *testing.T, br *bufio.Reader, want string) {
	t.Helper()
	from, payload, err := readFrame(br)
	if err != nil {
		t.Fatalf("reading %q: %v", want, err)
	}
	if from != 1 || string(payload) != want {
		t.Fatalf("got frame %q from %d, want %q from 1", payload, from, want)
	}
}

// TestInlineSendZeroAlloc pins the inline path at zero allocations: a Send
// on an idle link is one writev on the caller's goroutine, with the header,
// the iovecs and the RawConn callback in per-peer state.
func TestInlineSendZeroAlloc(t *testing.T) {
	var tp tap
	e, ln := inlineSender(t, wrapTap(&tp, nil))
	if err := e.Send(2, []byte("dial")); err != nil {
		t.Fatal(err)
	}
	c := accept(t, ln)
	waitPeer(t, e, 2, "an idle link", idle)
	payload := make([]byte, 128)
	var serr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Send(2, payload); err != nil {
			serr = err
		}
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if allocs != 0 {
		t.Fatalf("inline Send: %v allocs/op, want 0", allocs)
	}
	if w, sh := tp.whole.Load(), tp.short.Load(); w != 101 || sh != 0 {
		t.Fatalf("inline writes: %d whole, %d short; want all 101 whole", w, sh)
	}
	waitPeer(t, e, 2, "an idle link", idle)
	br := bufio.NewReader(c)
	expectFrame(t, br, "")
	expectFrame(t, br, "dial")
	for i := 0; i < 101; i++ {
		expectFrame(t, br, string(payload))
	}
}

// TestInlineSendNeverBlocks: a peer that stops reading fills the socket,
// and Send still returns at once while the queue has room — the inline
// write never waits for the socket, and the writer takes the backlog.
func TestInlineSendNeverBlocks(t *testing.T) {
	e, ln := inlineSender(t, nil)
	if err := e.Send(2, []byte("dial")); err != nil {
		t.Fatal(err)
	}
	accept(t, ln) // never read
	waitPeer(t, e, 2, "an idle link", idle)
	const frames = 64 // 16 MiB: several times what the link buffers
	payload := make([]byte, 256<<10)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := e.Send(2, payload); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a peer that is not reading")
	}
	waitPeer(t, e, 2, "a backlog", func(p *peer) bool { return len(p.pending) > 0 })
}

// TestInlineSendFIFO: concurrent senders send frames of mixed sizes, some
// larger than everything the link buffers, while the reader pauses and
// resumes, so frames switch between the inline path, partial inline
// writes and the writer's backlog. Every frame arrives intact and in
// per-sender order.
func TestInlineSendFIFO(t *testing.T) {
	var tp tap
	e, ln := inlineSender(t, wrapTap(&tp, nil))
	const senders, perSender = 3, 64
	big := 5 << 20 // above the 4 MiB send-buffer ceiling plus the receive buffer
	size := func(seq int) int {
		if seq == 2 || seq == 40 {
			return big
		}
		return []int{9, 200, 1500, 40000, 9, 300, 70000, 9}[seq%8]
	}
	frame := func(sender, seq int) []byte {
		b := bytes.Repeat([]byte{byte(seq*31 + sender)}, size(seq))
		b[0] = byte(sender)
		binary.LittleEndian.PutUint32(b[1:], uint32(seq))
		return b
	}
	if err := e.Send(2, frame(0, 0)); err != nil {
		t.Fatal(err)
	}
	c := accept(t, ln)
	waitPeer(t, e, 2, "an idle link", idle)
	// On the idle link sender 0's next frame goes inline whole, and the
	// one after cannot fit: a partial write, whose rest the writer finishes.
	for seq := 1; seq <= 2; seq++ {
		if err := e.Send(2, frame(0, seq)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		first := 0
		if s == 0 {
			first = 3
		}
		wg.Add(1)
		go func(s, first int) {
			defer wg.Done()
			for seq := first; seq < perSender; seq++ {
				if err := e.Send(2, frame(s, seq)); err != nil {
					errs <- err
					return
				}
			}
		}(s, first)
	}
	br := bufio.NewReader(c)
	if from, payload, err := readFrame(br); err != nil || from != 1 || len(payload) != 0 {
		t.Fatalf("first frame: from %d, %d bytes, %v; want the hello", from, len(payload), err)
	}
	next := make([]int, senders)
	for got := 0; got < senders*perSender; got++ {
		if got == 20 || got == 100 {
			time.Sleep(50 * time.Millisecond) // the reader pauses; the socket fills
		}
		_, b, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", got, err)
		}
		s, seq := int(b[0]), int(binary.LittleEndian.Uint32(b[1:]))
		if s >= senders || seq != next[s] {
			t.Fatalf("frame %d: sender %d seq %d, want seq %d", got, s, seq, next[s%senders])
		}
		if len(b) != size(seq) || bytes.Count(b[5:], []byte{byte(seq*31 + s)}) != len(b)-5 {
			t.Fatalf("sender %d seq %d: corrupted (%d bytes, want %d)", s, seq, len(b), size(seq))
		}
		next[s]++
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if tp.whole.Load() == 0 || tp.short.Load() == 0 {
		t.Fatalf("inline writes: %d whole, %d short; the test must cross both paths", tp.whole.Load(), tp.short.Load())
	}
}

// TestWrapConnInlineFrame: conn faults reach a frame that would have gone
// inline. ModeDrop swallows it as written; ModeStall makes it queue to the
// writer, which stalls in Write, and Send still returns; after the fault
// clears, frames flow in order.
func TestWrapConnInlineFrame(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		d := faults.NewDirector()
		var tp tap
		e, ln := inlineSender(t, wrapTap(&tp, d.Wrap))
		if err := e.Send(2, []byte("dial")); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(accept(t, ln))
		waitPeer(t, e, 2, "an idle link", idle)
		d.Set(2, faults.ModeDrop)
		if err := e.Send(2, []byte("dropped")); err != nil {
			t.Fatal(err)
		}
		d.Clear(2)
		if err := e.Send(2, []byte("kept")); err != nil {
			t.Fatal(err)
		}
		if w := tp.whole.Load(); w != 2 {
			t.Fatalf("%d whole inline writes, want 2 (the dropped frame and the next)", w)
		}
		expectFrame(t, br, "")
		expectFrame(t, br, "dial")
		expectFrame(t, br, "kept")
	})
	t.Run("stall", func(t *testing.T) {
		d := faults.NewDirector()
		var tp tap
		e, ln := inlineSender(t, wrapTap(&tp, d.Wrap))
		if err := e.Send(2, []byte("dial")); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(accept(t, ln))
		waitPeer(t, e, 2, "an idle link", idle)
		d.Set(2, faults.ModeStall)
		for _, m := range []string{"stalled", "behind"} {
			if err := e.Send(2, []byte(m)); err != nil {
				t.Fatal(err)
			}
		}
		if sh := tp.short.Load(); sh != 1 {
			t.Fatalf("%d short inline writes, want 1 (the stalled frame)", sh)
		}
		waitPeer(t, e, 2, "the writer holding the backlog", func(p *peer) bool { return len(p.pending) == 2 })
		d.Clear(2)
		expectFrame(t, br, "")
		expectFrame(t, br, "dial")
		expectFrame(t, br, "stalled")
		expectFrame(t, br, "behind")
	})
}

// TestInlineHelloFirstAfterRedial: a severed inline frame fails the
// connection; the writer redials, and on the new connection the hello
// still precedes the first inline frame.
func TestInlineHelloFirstAfterRedial(t *testing.T) {
	d := faults.NewDirector()
	var tp tap
	e, ln := inlineSender(t, wrapTap(&tp, d.Wrap))
	if err := e.Send(2, []byte("dial")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(accept(t, ln))
	expectFrame(t, br, "")
	expectFrame(t, br, "dial")
	waitPeer(t, e, 2, "an idle link", idle)
	d.Set(2, faults.ModeSever)
	if err := e.Send(2, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if sh := tp.short.Load(); sh != 1 {
		t.Fatalf("%d short inline writes, want 1 (the severed frame)", sh)
	}
	waitPeer(t, e, 2, "the writer to give the connection up", func(p *peer) bool { return len(p.pending) == 0 && p.tw == nil })
	d.Clear(2)
	if err := e.Send(2, []byte("redial")); err != nil {
		t.Fatal(err)
	}
	br = bufio.NewReader(accept(t, ln))
	waitPeer(t, e, 2, "an idle link", idle)
	whole := tp.whole.Load()
	if err := e.Send(2, []byte("inline")); err != nil {
		t.Fatal(err)
	}
	if tp.whole.Load() != whole+1 {
		t.Fatal("the frame after the redial did not go inline")
	}
	expectFrame(t, br, "")
	expectFrame(t, br, "redial")
	expectFrame(t, br, "inline")
}

// TestBacklogDrain: frames sent while the peer's reader pauses fill the
// socket and wait in the send queue; when the reader resumes, every frame
// arrives intact and in order, and the writer's vectored writes carried
// several frames each (more frames than socket writes). It runs on the
// bare socket and through a faults.Conn in pass mode, which gets each
// drain as plain Writes, one per header and per payload.
func TestBacklogDrain(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(transport.NodeID, net.Conn) net.Conn
	}{
		{"socket", nil},
		{"faults.Conn", faults.NewDirector().Wrap},
	} {
		t.Run(tc.name, func(t *testing.T) { backlogDrain(t, tc.wrap) })
	}
}

func backlogDrain(t *testing.T, wrap func(transport.NodeID, net.Conn) net.Conn) {
	e, ln := inlineSender(t, wrap)
	if err := e.Send(2, []byte("dial")); err != nil {
		t.Fatal(err)
	}
	c := accept(t, ln)
	br := bufio.NewReader(c)
	expectFrame(t, br, "")
	expectFrame(t, br, "dial")
	waitPeer(t, e, 2, "an idle link", idle)
	flushes, frames := e.cFlushes.Value(), e.cFlushFrames.Value()
	const n = 128 // 8 MiB: more than the link buffers
	for seq := 0; seq < n; seq++ {
		b := bytes.Repeat([]byte{byte(seq)}, 64<<10)
		binary.LittleEndian.PutUint32(b, uint32(seq))
		if err := e.Send(2, b); err != nil {
			t.Fatal(err)
		}
	}
	waitPeer(t, e, 2, "a backlog", func(p *peer) bool { return len(p.pending) > 0 })
	for seq := 0; seq < n; seq++ {
		_, b, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", seq, err)
		}
		if got := int(binary.LittleEndian.Uint32(b)); got != seq || len(b) != 64<<10 || b[len(b)-1] != byte(seq) {
			t.Fatalf("frame %d: got seq %d, %d bytes", seq, got, len(b))
		}
	}
	waitPeer(t, e, 2, "an idle link", idle)
	flushes, frames = e.cFlushes.Value()-flushes, e.cFlushFrames.Value()-frames
	if frames != n || flushes >= frames {
		t.Fatalf("%d frames in %d socket writes; want %d frames in fewer writes", frames, flushes, n)
	}
}
