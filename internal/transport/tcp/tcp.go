// Package tcp implements the transport.Endpoint contract over real TCP
// sockets, for deployments where each PASO machine is a separate OS
// process (cmd/pasod). It provides what the group layer requires:
//
//   - reliable FIFO delivery per sender pair (one TCP connection per
//     direction; a reconnect counts as the old messages being lost, which
//     the crash model already tolerates);
//   - an Up event for a peer delivered before any of its messages (the
//     hello frame precedes data on every connection);
//   - Down events from a heartbeat failure detector.
//
// Frame format: 4-byte little-endian length, 8-byte sender id, payload.
// A frame with empty payload is a heartbeat/hello.
//
// A frame leaves on its sender's goroutine whenever nothing to that peer
// is queued or being written: send makes one non-blocking writev of the
// header and the payload (tryWriter) under the peer's mutex. A socket that
// would block, an error, or a connection whose hello has not gone out yet
// appends the frame to the peer's bounded send queue instead, and a partial
// write queues the rest of the frame; once anything is queued, later frames
// queue behind it until the writer has written them, so per-peer FIFO
// holds across the switch. Each peer has one goroutine, its writer: it
// dials on its own schedule (a dead peer's dial timeout never runs on a
// sender's goroutine), writes the hello, and drains the queue with one
// vectored write of every queued header and payload — up to 511 frames
// queued behind one another cost one writev instead of a syscall each (Go
// passes at most 1,024 iovecs, two per frame, to one writev), amortizing the
// per-message α of the paper's msg-cost(m) = α + β·|m| model (§3.3). The
// failure detector's tick sends each peer's heartbeat the way a sender
// sends a frame: inline on an idle link, queued otherwise.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// Send-path tuning.
const (
	// sendQueueCap bounds each peer's send queue, the frames being written
	// included. A full queue exerts backpressure on senders (Send blocks)
	// until the writer drains it; frames to an unreachable peer are dropped
	// in bulk instead, so the queue never stays full behind a dead peer.
	sendQueueCap = 1024
	// readBufSize is the bufio.Reader size on each incoming connection.
	readBufSize = 64 << 10
)

// Options tunes the failure detector.
type Options struct {
	// HeartbeatInterval is how often idle connections send heartbeats.
	// Default 50ms. It doubles as the redial backoff after a failed dial.
	HeartbeatInterval time.Duration
	// FailTimeout is how long a silent peer stays "up". Default 4×
	// heartbeat.
	FailTimeout time.Duration
	// Obs receives transport metrics (messages/bytes in each direction,
	// heartbeat misses, peers-up gauge, flush batching) and peer up/down
	// events. Nil records into a throwaway sink.
	Obs *obs.Obs
	// WrapConn, when non-nil, interposes on every outgoing connection
	// right after it is dialed, before any frame is written. It is the
	// fault-injection seam (FAULTS.md §2.9–2.11): internal/faults'
	// Director.Wrap returns a connection whose writes can be dropped,
	// stalled, or severed per peer. The returned conn's Close must also
	// close (and unblock) the wrapped one — Endpoint.Close relies on that
	// to interrupt a writer wedged in a stalled write. A sender writes a
	// frame inline only through a returned conn with a
	// TryWrite(hdr, payload []byte) (int, error) method that passes it on
	// (faults.Conn has one). The writer's drain reaches any wrapper as
	// plain Writes, one per header and per payload.
	WrapConn func(peer transport.NodeID, c net.Conn) net.Conn
}

func (o Options) withDefaults() Options {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.FailTimeout <= 0 {
		o.FailTimeout = 4 * o.HeartbeatInterval
	}
	return o
}

// Endpoint is a TCP attachment to the PASO network.
type Endpoint struct {
	id   transport.NodeID
	opts Options
	ln   net.Listener
	mbox *transport.Mailbox

	// peers is copy-on-write, so send reads it once per frame without the
	// mutex the detector shares. AddPeer replaces it, Close sets closed, under mu.
	peers  atomic.Pointer[map[transport.NodeID]*peer]
	closed atomic.Bool

	mu   sync.Mutex
	seen map[transport.NodeID]time.Time // the peers up, and when each was last heard

	stop chan struct{}
	wg   sync.WaitGroup

	// Pre-resolved metric handles (one atomic op per hot-path update).
	o            *obs.Obs
	cMsgsSent    *obs.Counter
	cBytesSent   *obs.Counter
	cHBMiss      *obs.Counter
	gPeersUp     *obs.Gauge
	cFlushes     *obs.Counter
	cFlushFrames *obs.Counter
	hFlushBatch  *obs.Histogram
	hFrameBytes  *obs.Histogram
	cSendDrops   *obs.Counter
	cSendStalls  *obs.Counter
	// Per-stage latency attribution: queue wait before the writer picks a
	// queued frame up, and the socket write itself (the writer's vectored
	// write, or an inline frame's writev).
	hStageSendQ     *obs.Histogram
	hStageSockWrite *obs.Histogram
}

// outFrame is one outgoing frame. hb marks heartbeats, which the data-frame
// counters and the send-queue-wait stage skip. owned marks a payload drawn
// from the transport buffer pool (SendOwned): it is recycled once the frame
// is written or dropped. at is a queued frame's enqueue time off the coarse
// clock (a queue crossing: its resolution is enough), feeding the
// send-queue-wait stage histogram. off counts the frame's bytes, header
// included, that a partial inline write already put on the wire; the writer
// writes the rest.
type outFrame struct {
	payload []byte
	hb      bool
	owned   bool
	at      time.Time
	off     int
}

// tryWriter is the inline-write hook of a connection: TryWrite writes
// what the socket takes now of hdr followed by payload, without waiting,
// and reports how many bytes that was. A short count with a nil error
// means the rest would block. sockConn implements it over the socket;
// a WrapConn wrapper implements it to steer inline frames (faults.Conn).
type tryWriter interface {
	TryWrite(hdr, payload []byte) (int, error)
}

// peer is the outgoing side of a link: frames written inline by their
// senders while the link is idle, and a bounded send queue drained by one
// writer goroutine that owns the connection.
type peer struct {
	id     transport.NodeID
	addr   string
	gDepth *obs.Gauge // the live queue depth
	gHwm   *obs.Gauge // its high-watermark, monotone per endpoint lifetime

	// mu guards the rest. pending is the send queue: the frames handed to
	// the writer (heartbeats included), those it is writing among them,
	// until written or dropped. cond wakes the writer when pending gains a
	// frame, and senders waiting for room when it loses some. conn mirrors
	// the writer's connection so Close can interrupt a blocked write. tw is
	// conn's inline writer, published once the write carrying the hello is
	// done: a sender writes inline only while pending is empty and tw is
	// set, so it never races the writer on the socket or overtakes a queued
	// frame. hdr is the inline header's scratch, hwm backs gHwm, and stalled
	// keeps the event ring to one "send-stall" event per stall episode.
	mu      sync.Mutex
	pending []outFrame
	cond    sync.Cond
	conn    net.Conn
	tw      tryWriter
	hdr     [frameHdrSize]byte
	hwm     int
	stalled bool

	// The writer's scratch, reused so a drain allocates nothing: the
	// headers it writes, and the vectored write over them and the payloads
	// (wv is the copy that the write consumes).
	hdrs    []byte
	vec, wv net.Buffers
}

// enqueue appends f to the send queue, waking the writer if the queue was
// empty (no sender waits for room then), and records the depth and its
// high-watermark; p.mu is held.
func (p *peer) enqueue(f outFrame) {
	if len(p.pending) == 0 {
		p.cond.Signal()
	}
	p.pending = append(p.pending, f)
	d := len(p.pending)
	p.gDepth.Set(int64(d))
	if d > p.hwm {
		p.hwm = d
		p.gHwm.Set(int64(d))
	}
}

// closeConn gives the current connection up. It also wakes the writer
// and the senders waiting for room, so that Close releases them.
func (p *peer) closeConn() {
	p.mu.Lock()
	p.tw = nil
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

var _ transport.Endpoint = (*Endpoint)(nil)

// Listen starts an endpoint accepting frames on addr (use "127.0.0.1:0"
// to pick a free port; Addr reports the actual address). Peers are added
// with AddPeer.
func Listen(id transport.NodeID, addr string, opts Options) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	e := &Endpoint{
		id:   id,
		opts: opts.withDefaults(),
		ln:   ln,
		mbox: transport.NewMailbox(),
		seen: make(map[transport.NodeID]time.Time),
		stop: make(chan struct{}),
	}
	e.peers.Store(&map[transport.NodeID]*peer{})
	e.o = opts.Obs
	if e.o == nil {
		e.o = obs.Nop()
	}
	e.cMsgsSent = e.o.Counter("transport.msgs.sent")
	e.cBytesSent = e.o.Counter("transport.bytes.sent")
	e.cHBMiss = e.o.Counter("transport.heartbeat.misses")
	e.gPeersUp = e.o.Gauge("transport.peers.up")
	e.cFlushes = e.o.Counter("transport.flushes")
	e.cFlushFrames = e.o.Counter("transport.flush.frames")
	e.hFlushBatch = e.o.Histogram("transport.flush.batch")
	e.hFrameBytes = e.o.Histogram("transport.frame.bytes")
	e.cSendDrops = e.o.Counter("transport.send.drops")
	e.cSendStalls = e.o.Counter("transport.send.stalls")
	e.hStageSendQ = e.o.Histogram(obs.StageSendQueue)
	e.hStageSockWrite = e.o.Histogram(obs.StageSocketWrite)
	e.mbox.Instrument(e.o.Gauge("transport.mailbox.depth"), e.o.Gauge("transport.mailbox.hwm"))
	e.wg.Add(2)
	go e.acceptLoop()
	go e.detectorLoop()
	return e, nil
}

// Addr returns the listener's address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// AddPeer registers a peer's dial address, starting its writer.
func (e *Endpoint) AddPeer(id transport.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	peers := *e.peers.Load()
	if _, exists := peers[id]; exists || id == e.id || e.closed.Load() {
		return
	}
	label := fmt.Sprint(id)
	p := &peer{
		id: id, addr: addr,
		gDepth: e.o.Gauge(e.o.Series("transport.sendq.depth.p{peer}", label)),
		gHwm:   e.o.Gauge(e.o.Series("transport.sendq.hwm.p{peer}", label)),
	}
	p.cond.L = &p.mu
	next := maps.Clone(peers)
	next[id] = p
	e.peers.Store(&next)
	e.wg.Add(1)
	go e.writerLoop(p)
}

// ID implements transport.Endpoint.
func (e *Endpoint) ID() transport.NodeID { return e.id }

// Recv implements transport.Endpoint.
func (e *Endpoint) Recv() <-chan transport.Item { return e.mbox.Out() }

// Alive implements transport.Endpoint.
func (e *Endpoint) Alive() []transport.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := []transport.NodeID{e.id}
	for id := range e.seen {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Send implements transport.Endpoint. The frame is written inline when
// the link is idle, or else queued for the peer's writer goroutine; a
// queued payload is retained until written, so it must not be mutated
// after Send returns. Sending to an unknown or down peer silently
// drops, as on a LAN. A full queue to a live peer blocks (backpressure)
// until the writer drains it or the endpoint closes.
func (e *Endpoint) Send(to transport.NodeID, payload []byte) error {
	return e.send(to, payload, false)
}

// SendOwned implements transport.Endpoint: Send, except the payload
// buffer came from transport.GetBuf and the endpoint recycles it after the
// frame is written or dropped.
func (e *Endpoint) SendOwned(to transport.NodeID, payload []byte) error {
	return e.send(to, payload, true)
}

func (e *Endpoint) send(to transport.NodeID, payload []byte, owned bool) error {
	if e.closed.Load() {
		return transport.ErrClosed
	}
	if to == e.id {
		// Loopback short-circuits the socket (a machine does not occupy
		// the wire to talk to itself).
		cp := make([]byte, len(payload))
		copy(cp, payload)
		if owned {
			transport.PutBuf(payload)
		}
		e.mbox.Put(transport.Item{Kind: transport.KindMsg, From: e.id, Payload: cp})
		return nil
	}
	p := (*e.peers.Load())[to]
	if p == nil {
		if owned {
			transport.PutBuf(payload)
		}
		return nil
	}
	f := outFrame{payload: payload, owned: owned}
	p.mu.Lock()
	if e.writeInline(p, f) {
		p.mu.Unlock()
		return nil
	}
	f.at = obs.CoarseNow()
	if len(p.pending) >= sendQueueCap {
		e.cSendStalls.Inc()
		// One event per stall episode, not per blocked Send: under
		// saturation every Send stalls, and per-call events would evict
		// everything else from the ring. The writer clears the flag once it
		// drains the queue.
		if !p.stalled {
			p.stalled = true
			e.o.Emit("send-stall", obs.KV("peer", p.id), obs.KV("depth", sendQueueCap))
		}
		for len(p.pending) >= sendQueueCap && !e.closed.Load() {
			p.cond.Wait()
		}
		if e.closed.Load() {
			p.mu.Unlock()
			if owned {
				transport.PutBuf(payload)
			}
			return transport.ErrClosed
		}
	}
	p.enqueue(f)
	p.mu.Unlock()
	return nil
}

// writeInline offers one frame to the socket when the link is idle (an
// empty queue, the hello written) and reports whether the frame is taken
// care of; p.mu is held. A frame written whole counts as a flush of one
// frame, and a data frame as a message sent. A partial write queues the
// rest of the frame, header included; the queue was empty, so the rest is
// written next and the queueing cannot block. When nothing was written the
// caller queues the frame as a whole.
func (e *Endpoint) writeInline(p *peer, f outFrame) bool {
	if len(p.pending) != 0 || p.tw == nil {
		return false
	}
	putHeader(p.hdr[:], e.id, len(f.payload))
	start := time.Now()
	n, err := p.tw.TryWrite(p.hdr[:], f.payload)
	if err == nil && n == frameHdrSize+len(f.payload) {
		e.hStageSockWrite.Observe(time.Since(start).Seconds())
		e.finish(f, true)
		e.cFlushes.Inc()
		e.cFlushFrames.Inc()
		e.hFlushBatch.Observe(1)
		return true
	}
	if n <= 0 {
		return false
	}
	f.off, f.at = n, obs.CoarseNow()
	p.enqueue(f)
	return true
}

// writerLoop owns one peer's connection: it dials lazily, writes the
// hello, and drains the queue, every frame in it at once, with one
// vectored write. Frames bound for an unreachable peer are dropped in bulk
// so the queue never backs up behind a dead peer.
func (e *Endpoint) writerLoop(p *peer) {
	defer e.wg.Done()
	defer p.closeConn()
	var conn net.Conn
	var lastDialFail time.Time
	for {
		p.mu.Lock()
		for len(p.pending) == 0 && !e.closed.Load() {
			p.cond.Wait()
		}
		n := len(p.pending)
		p.mu.Unlock()
		if e.closed.Load() {
			return
		}
		hello := conn == nil
		if hello {
			// No connection. Inside the redial backoff window the peer is
			// presumed unreachable: drop the backlog instead of stalling
			// senders behind a doomed dial.
			if time.Since(lastDialFail) < e.opts.HeartbeatInterval {
				e.retire(p, n, nil)
				continue
			}
			c, err := net.DialTimeout("tcp", p.addr, time.Second)
			if err != nil {
				lastDialFail = time.Now()
				e.retire(p, n, nil)
				continue
			}
			conn = inlineConn(c)
			if e.opts.WrapConn != nil {
				conn = e.opts.WrapConn(p.id, conn)
			}
			p.mu.Lock()
			p.conn = conn
			p.mu.Unlock()
			// Re-check now that the conn is published: if Close swept the
			// peers before, nothing else will ever close this conn, and a
			// blocking write on it would wedge wg.Wait. Close marks the
			// endpoint closed before its sweep takes the peer mutex, so one
			// side is guaranteed to observe the other.
			if e.closed.Load() {
				return
			}
		}
		// One write carries the hello (on a new connection) and everything
		// queued; retire publishes the inline writer only after it, so no
		// inline frame can precede the hello.
		n = e.fill(p, hello)
		start := time.Now()
		p.wv = p.vec
		_, err := p.wv.WriteTo(conn)
		e.hStageSockWrite.Observe(time.Since(start).Seconds())
		if err != nil {
			p.closeConn()
			conn = nil
		}
		e.retire(p, n, conn)
	}
}

// fill builds p.vec, one vectored write of the hello (when hello is set)
// and every queued frame, and returns how many queued frames it covers;
// they stay queued until retire. A frame a partial inline write began
// contributes only its rest. Header slot 0 is the hello's.
func (e *Endpoint) fill(p *peer, hello bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.pending)
	size := (1 + n) * frameHdrSize
	p.hdrs = slices.Grow(p.hdrs[:0], size)[:size]
	vec := p.vec[:0]
	if hello {
		putHeader(p.hdrs, e.id, 0)
		vec = append(vec, p.hdrs[:frameHdrSize])
	}
	for i, f := range p.pending {
		// Send-queue-wait stage: enqueue to writer pickup, per data frame.
		if !f.hb {
			e.hStageSendQ.Observe(obs.CoarseSince(f.at).Seconds())
		}
		off := f.off
		if off < frameHdrSize {
			hdr := p.hdrs[(1+i)*frameHdrSize:][:frameHdrSize]
			putHeader(hdr, e.id, len(f.payload))
			vec = append(vec, hdr[off:])
			off = frameHdrSize
		}
		if rest := f.payload[off-frameHdrSize:]; len(rest) > 0 {
			vec = append(vec, rest)
		}
	}
	p.vec = vec
	return n
}

// retire takes the first n frames off p's queue, written on conn or, when
// conn is nil, dropped, and publishes conn's inline writer (none for a nil
// conn or one without TryWrite). A dropped heartbeat counts as a heartbeat
// miss, a dropped data frame as a send drop. Pooled payloads go back to
// the buffer pool, and senders waiting for room wake.
func (e *Endpoint) retire(p *peer, n int, conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.pending[:n] {
		e.finish(f, conn != nil)
	}
	left := copy(p.pending, p.pending[n:])
	clear(p.pending[left:])
	p.pending = p.pending[:left]
	p.tw, _ = conn.(tryWriter)
	p.gDepth.Set(int64(left))
	if left == 0 && p.stalled {
		p.stalled = false
		e.o.Emit("send-stall-clear", obs.KV("peer", p.id))
	}
	if conn != nil {
		e.cFlushes.Inc()
		e.cFlushFrames.Add(int64(n))
		e.hFlushBatch.Observe(float64(n))
	}
	p.cond.Broadcast()
}

// finish counts a frame written (a data frame as a message sent) or
// dropped (a heartbeat as a miss, a data frame as a send drop), and
// recycles its pooled payload.
func (e *Endpoint) finish(f outFrame, written bool) {
	switch {
	case !written && f.hb:
		e.cHBMiss.Inc()
	case !written:
		e.cSendDrops.Inc()
	case !f.hb:
		e.cMsgsSent.Inc()
		e.cBytesSent.Add(int64(len(f.payload)))
		e.hFrameBytes.Observe(float64(frameHdrSize + len(f.payload)))
	}
	if f.owned {
		transport.PutBuf(f.payload)
	}
}

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed.Swap(true) {
		e.mu.Unlock()
		return nil
	}
	close(e.stop)
	peers := *e.peers.Load() // final: AddPeer refuses a closed endpoint
	e.mu.Unlock()
	e.ln.Close()
	// Release senders waiting for room, and interrupt writers blocked in a
	// socket write; they observe the error (or the closed endpoint) and exit.
	for _, p := range peers {
		p.closeConn()
	}
	e.wg.Wait()
	e.mbox.Close()
	return nil
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop consumes frames from one incoming connection. The first frame
// is the hello carrying the sender's identity; an Up event is emitted
// before any data from that sender.
//
// The read deadline and the detector's last-seen stamp are refreshed
// together, at most once per quarter heartbeat: both only need to be fresh
// relative to FailTimeout, and per frame they cost a runtime timer reset and
// the endpoint mutex. The coarse clock says when a refresh is due, checked
// after the read — so a frame ending a silence long enough for the detector
// to have declared the peer down always refreshes: its Up still precedes it.
func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	var from transport.NodeID
	var seenAt time.Time // coarse-clock time of the last refresh; zero before the hello
	_ = conn.SetReadDeadline(time.Now().Add(e.opts.FailTimeout * 2))
	br := bufio.NewReaderSize(conn, readBufSize)
	for !e.closed.Load() {
		sender, payload, err := readFrame(br)
		if err != nil {
			return
		}
		due := seenAt.IsZero()
		if due {
			from = sender // the hello
		} else if age := obs.CoarseSince(seenAt); age >= e.opts.HeartbeatInterval/4 || age < 0 {
			due = true // a negative age is the wall clock stepping back
		}
		if due {
			seenAt = obs.CoarseNow()
			_ = conn.SetReadDeadline(time.Now().Add(e.opts.FailTimeout * 2))
			e.markSeen(from)
		}
		if len(payload) > 0 {
			e.mbox.Put(transport.Item{Kind: transport.KindMsg, From: from, Payload: payload})
		}
	}
}

// markSeen refreshes the failure detector and emits Up on transitions,
// queued with the transition: once Alive lists a peer, its Up is in the
// stream, whatever the log line after it waits for.
func (e *Endpoint) markSeen(id transport.NodeID) {
	e.mu.Lock()
	_, wasUp := e.seen[id]
	e.seen[id] = time.Now()
	if !wasUp {
		e.mbox.Put(transport.Item{Kind: transport.KindUp, From: id})
	}
	e.mu.Unlock()
	if !wasUp {
		e.gPeersUp.Add(1)
		e.o.Emit("peer-up", obs.KV("peer", id))
	}
}

// detectorLoop expires silent peers and keeps every outgoing link warm:
// each tick sends a heartbeat frame to each peer, inline on an idle link
// and queued otherwise, and a queued heartbeat also dials a link that has
// no connection. A full queue is skipped — the data frames already in it
// prove liveness to the receiver just as well.
func (e *Endpoint) detectorLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			for _, p := range *e.peers.Load() {
				p.mu.Lock()
				if !e.writeInline(p, outFrame{hb: true}) && len(p.pending) < sendQueueCap {
					p.enqueue(outFrame{hb: true})
				}
				p.mu.Unlock()
			}
			now := time.Now()
			var downs []transport.NodeID
			e.mu.Lock()
			for id, at := range e.seen {
				if now.Sub(at) > e.opts.FailTimeout {
					delete(e.seen, id)
					e.mbox.Put(transport.Item{Kind: transport.KindDown, From: id}) // as markSeen's Up
					downs = append(downs, id)
				}
			}
			e.mu.Unlock()
			for _, id := range downs {
				e.gPeersUp.Add(-1)
				e.o.Emit("peer-down", obs.KV("peer", id))
			}
		}
	}
}

// --- framing ---

const maxFrame = 64 << 20 // 64 MiB: state transfers can be large

// frameHdrSize is the fixed per-frame header: 4-byte length + 8-byte
// sender id. transport.frame.bytes observes header + payload, the actual
// bytes a data frame occupies on the wire.
const frameHdrSize = 12

// putHeader fills a frame header into hdr's first frameHdrSize bytes.
func putHeader(hdr []byte, from transport.NodeID, n int) {
	binary.LittleEndian.PutUint32(hdr, uint32(n))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(from))
}

func readFrame(r io.Reader) (transport.NodeID, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	from := transport.NodeID(binary.LittleEndian.Uint64(hdr[4:]))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("tcp: frame of %d bytes exceeds limit", n)
	}
	if n == 0 {
		return from, nil, nil
	}
	// Fresh buffer per frame, by contract: receivers alias into delivered
	// payloads (transport.Item ownership), so read buffers must never be
	// reused across frames.
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return from, payload, nil
}
