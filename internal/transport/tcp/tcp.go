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
// The send path is asynchronous and batched: each peer has a bounded send
// queue drained by a dedicated writer goroutine. The writer dials on its
// own schedule (a dead peer's dial timeout never runs on a sender's
// goroutine), writes queued frames through a bufio.Writer, and flushes
// once per drained batch — k frames queued behind one another cost one
// syscall instead of k, amortizing the per-message α of the paper's
// msg-cost(m) = α + β·|m| model (§3.3). A batch that did not fill yields the
// processor once first, so frames about to be queued share the flush.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// Send-path tuning.
const (
	// sendQueueCap bounds each peer's send queue. A full queue exerts
	// backpressure on senders (Send blocks) until the writer drains it;
	// frames to an unreachable peer are dropped in bulk instead, so the
	// queue never stays full behind a dead peer.
	sendQueueCap = 1024
	// maxBatchFrames caps how many queued frames one flush coalesces.
	maxBatchFrames = 256
	// writeBufSize is the bufio.Writer size on each outgoing connection.
	writeBufSize = 64 << 10
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
	// to interrupt a writer wedged in a stalled write.
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

	mu       sync.Mutex
	lastSeen map[transport.NodeID]time.Time
	up       map[transport.NodeID]bool

	stop chan struct{}
	wg   sync.WaitGroup

	// Pre-resolved metric handles (one atomic op per hot-path update).
	o            *obs.Obs
	cMsgsSent    *obs.Counter
	cBytesSent   *obs.Counter
	cMsgsRecv    *obs.Counter
	cBytesRecv   *obs.Counter
	cHBSent      *obs.Counter
	cHBMiss      *obs.Counter
	gPeersUp     *obs.Gauge
	cFlushes     *obs.Counter
	cFlushFrames *obs.Counter
	hFlushBatch  *obs.Histogram
	hFrameBytes  *obs.Histogram
	cSendDrops   *obs.Counter
	cSendStalls  *obs.Counter
	// Per-stage latency attribution: queue wait before the writer picks a
	// frame up, and the batched write+flush itself.
	hStageSendQ     *obs.Histogram
	hStageSockWrite *obs.Histogram
}

// outFrame is one queued outgoing frame. hb marks heartbeats (and the
// hello), which are counted separately from data frames. owned marks a
// payload drawn from the transport buffer pool (SendOwned): the writer
// recycles it once the frame is written or dropped. at is the enqueue
// time of data frames off the coarse clock (a queue crossing: its
// resolution is enough), feeding the send-queue-wait stage histogram.
type outFrame struct {
	payload []byte
	hb      bool
	owned   bool
	at      time.Time
}

// peer is the outgoing side of a link: a bounded queue drained by one
// writer goroutine that owns the connection.
type peer struct {
	id   transport.NodeID
	addr string
	q    chan outFrame

	// Backpressure watermarks: a live depth gauge, a high-watermark gauge
	// (monotone per endpoint lifetime), and a stall flag that bounds the
	// event ring to one "send-stall" event per stall episode rather than
	// one per blocked Send.
	gDepth  *obs.Gauge
	gHwm    *obs.Gauge
	hwm     atomic.Int64
	stalled atomic.Bool

	// conn mirrors the writer's current connection so Close can interrupt
	// a blocked write. The writer alone dials and replaces it.
	mu   sync.Mutex
	conn net.Conn
}

// noteDepth records the queue depth after an enqueue, ratcheting the
// high-watermark gauge when a new maximum is observed.
func (p *peer) noteDepth() {
	d := int64(len(p.q))
	p.gDepth.Set(d)
	for {
		old := p.hwm.Load()
		if d <= old {
			return
		}
		if p.hwm.CompareAndSwap(old, d) {
			p.gHwm.Set(d)
			return
		}
	}
}

func (p *peer) setConn(c net.Conn) {
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
}

func (p *peer) closeConn() {
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.mu.Unlock()
}

var (
	_ transport.Endpoint    = (*Endpoint)(nil)
	_ transport.OwnedSender = (*Endpoint)(nil)
)

// Listen starts an endpoint accepting frames on addr (use "127.0.0.1:0"
// to pick a free port; Addr reports the actual address). Peers are added
// with AddPeer.
func Listen(id transport.NodeID, addr string, opts Options) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	e := &Endpoint{
		id:       id,
		opts:     opts.withDefaults(),
		ln:       ln,
		mbox:     transport.NewMailbox(),
		lastSeen: make(map[transport.NodeID]time.Time),
		up:       make(map[transport.NodeID]bool),
		stop:     make(chan struct{}),
	}
	e.peers.Store(&map[transport.NodeID]*peer{})
	e.o = opts.Obs
	if e.o == nil {
		e.o = obs.Nop()
	}
	e.cMsgsSent = e.o.Counter("transport.msgs.sent")
	e.cBytesSent = e.o.Counter("transport.bytes.sent")
	e.cMsgsRecv = e.o.Counter("transport.msgs.recv")
	e.cBytesRecv = e.o.Counter("transport.bytes.recv")
	e.cHBSent = e.o.Counter("transport.heartbeats.sent")
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

// AddPeer registers a peer's dial address, starting its writer and
// heartbeater.
func (e *Endpoint) AddPeer(id transport.NodeID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	peers := *e.peers.Load()
	if _, exists := peers[id]; exists || id == e.id || e.closed.Load() {
		return
	}
	label := fmt.Sprint(id)
	p := &peer{
		id: id, addr: addr, q: make(chan outFrame, sendQueueCap),
		gDepth: e.o.Gauge(e.o.Series("transport.sendq.depth.p{peer}", label)),
		gHwm:   e.o.Gauge(e.o.Series("transport.sendq.hwm.p{peer}", label)),
	}
	next := maps.Clone(peers)
	next[id] = p
	e.peers.Store(&next)
	e.wg.Add(2)
	go e.writerLoop(p)
	go e.heartbeatLoop(p)
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
	for id, isUp := range e.up {
		if isUp {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

// Send implements transport.Endpoint. The frame is queued for the peer's
// writer goroutine; the payload is retained until written and must not be
// mutated after Send returns. Sending to an unknown or down peer silently
// drops, as on a LAN. A full queue to a live peer blocks (backpressure)
// until the writer drains it or the endpoint closes.
func (e *Endpoint) Send(to transport.NodeID, payload []byte) error {
	return e.send(to, payload, false)
}

// SendOwned implements transport.OwnedSender: Send, except the payload
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
	f := outFrame{payload: payload, owned: owned, at: obs.CoarseNow()}
	select {
	case p.q <- f:
		p.noteDepth()
		return nil
	default:
	}
	e.cSendStalls.Inc()
	// One event per stall episode, not per blocked Send: under saturation
	// every Send stalls, and per-call events would evict everything else
	// from the ring. The writer clears the flag once it drains the queue.
	if p.stalled.CompareAndSwap(false, true) {
		e.o.Emit("send-stall", obs.KV("peer", p.id), obs.KV("depth", len(p.q)))
	}
	select {
	case p.q <- f:
		p.noteDepth()
		return nil
	case <-e.stop:
		if owned {
			transport.PutBuf(payload)
		}
		return transport.ErrClosed
	}
}

// writerLoop owns one peer's connection: it dials lazily, coalesces
// queued frames through a buffered writer, and flushes once per batch.
// Frames bound for an unreachable peer are dropped in bulk so the queue
// never backs up behind a dead peer.
func (e *Endpoint) writerLoop(p *peer) {
	defer e.wg.Done()
	defer p.closeConn()
	var bw *bufio.Writer
	var hdr [12]byte
	var lastDialFail time.Time
	batch := make([]outFrame, 0, maxBatchFrames)
	for {
		var f outFrame
		select {
		case <-e.stop:
			return
		case f = <-p.q:
		}
		if bw == nil {
			// No connection. Inside the redial backoff window the peer is
			// presumed unreachable: drop the backlog instead of stalling
			// senders behind a doomed dial.
			if time.Since(lastDialFail) < e.opts.HeartbeatInterval {
				e.dropFrame(f)
				e.drainAndDrop(p)
				continue
			}
			conn, err := net.DialTimeout("tcp", p.addr, time.Second)
			if err != nil {
				lastDialFail = time.Now()
				e.dropFrame(f)
				e.drainAndDrop(p)
				continue
			}
			if e.opts.WrapConn != nil {
				conn = e.opts.WrapConn(p.id, conn)
			}
			p.setConn(conn)
			// Re-check stop now that the conn is published: if Close swept
			// the peers before setConn, nothing else will ever close this
			// conn, and a blocking write on it would wedge wg.Wait. The
			// peer mutex orders setConn against Close's sweep, so one side
			// is guaranteed to observe the other.
			select {
			case <-e.stop:
				p.closeConn()
				e.dropFrame(f)
				return
			default:
			}
			bw = bufio.NewWriterSize(conn, writeBufSize)
			// Hello frame: announces our identity before any data. It
			// rides in the same flush as the batch that triggered the dial.
			if err := writeFrameTo(bw, &hdr, e.id, nil); err != nil {
				p.closeConn()
				bw = nil
				e.dropFrame(f)
				continue
			}
		}
		// Coalesce whatever else is already queued, then write the batch
		// through the buffer and flush once: k frames, one syscall. A batch
		// that did not fill yields the processor once first (the loopy-writer
		// idiom): senders runnable right now queue their frames behind this
		// one and share its flush. On an idle machine the yield returns at
		// once, so a lone frame is not delayed and nothing needs tuning.
		batch = coalesce(append(batch[:0], f), p.q)
		if len(batch) < maxBatchFrames {
			runtime.Gosched()
			batch = coalesce(batch, p.q)
		}
		// Send-queue-wait stage: enqueue to writer pickup, per data frame.
		for _, fr := range batch {
			if !fr.at.IsZero() {
				e.hStageSendQ.Observe(obs.CoarseSince(fr.at).Seconds())
			}
		}
		now := time.Now()
		var werr error
		for _, fr := range batch {
			if werr = writeFrameTo(bw, &hdr, e.id, fr.payload); werr != nil {
				break
			}
		}
		if werr == nil {
			werr = bw.Flush()
		}
		e.hStageSockWrite.Observe(time.Since(now).Seconds())
		p.gDepth.Set(int64(len(p.q)))
		if len(p.q) == 0 && p.stalled.CompareAndSwap(true, false) {
			e.o.Emit("send-stall-clear", obs.KV("peer", p.id))
		}
		if werr != nil {
			for _, fr := range batch {
				e.dropFrame(fr)
			}
			p.closeConn()
			bw = nil
			continue
		}
		var msgs, bytes int64
		for _, fr := range batch {
			if fr.hb {
				e.cHBSent.Inc()
			} else {
				msgs++
				bytes += int64(len(fr.payload))
				e.hFrameBytes.Observe(float64(frameHdrSize + len(fr.payload)))
			}
			if fr.owned {
				// The bufio writer consumed the bytes during writeFrameTo;
				// the pooled buffer is free to carry the next frame.
				transport.PutBuf(fr.payload)
			}
		}
		if msgs > 0 {
			e.cMsgsSent.Add(msgs)
			e.cBytesSent.Add(bytes)
		}
		e.cFlushes.Inc()
		e.cFlushFrames.Add(int64(len(batch)))
		e.hFlushBatch.Observe(float64(len(batch)))
	}
}

// coalesce appends the frames waiting in q, up to maxBatchFrames in all.
func coalesce(batch []outFrame, q <-chan outFrame) []outFrame {
	for len(batch) < maxBatchFrames {
		select {
		case f := <-q:
			batch = append(batch, f)
		default:
			return batch
		}
	}
	return batch
}

// dropFrame accounts for one undeliverable frame: heartbeat misses feed
// the detector's counter, data drops their own. Pooled payloads go back to
// the buffer pool — a dropped frame is fully forgotten.
func (e *Endpoint) dropFrame(f outFrame) {
	if f.hb {
		e.cHBMiss.Inc()
	} else {
		e.cSendDrops.Inc()
	}
	if f.owned {
		transport.PutBuf(f.payload)
	}
}

// drainAndDrop empties a peer's queue, dropping every frame (the peer is
// unreachable; on a LAN those frames are simply lost).
func (e *Endpoint) drainAndDrop(p *peer) {
	for {
		select {
		case f := <-p.q:
			e.dropFrame(f)
		default:
			p.gDepth.Set(int64(len(p.q)))
			if p.stalled.CompareAndSwap(true, false) {
				e.o.Emit("send-stall-clear", obs.KV("peer", p.id))
			}
			return
		}
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
	// Interrupt writers blocked in a socket write; they observe the error
	// (or the closed stop channel) and exit.
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
	br := bufio.NewReaderSize(conn, writeBufSize)
	for {
		select {
		case <-e.stop:
			return
		default:
		}
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
			e.cMsgsRecv.Inc()
			e.cBytesRecv.Add(int64(len(payload)))
			e.mbox.Put(transport.Item{Kind: transport.KindMsg, From: from, Payload: payload})
		}
	}
}

// markSeen refreshes the failure detector and emits Up on transitions.
func (e *Endpoint) markSeen(id transport.NodeID) {
	e.mu.Lock()
	wasUp := e.up[id]
	e.up[id] = true
	e.lastSeen[id] = time.Now()
	e.mu.Unlock()
	if !wasUp {
		e.gPeersUp.Add(1)
		e.o.Emit("peer-up", obs.KV("peer", id))
		e.mbox.Put(transport.Item{Kind: transport.KindUp, From: id})
	}
}

// heartbeatLoop keeps one outgoing link warm by queueing a heartbeat
// frame each tick. A congested queue is skipped — the data frames already
// in it prove liveness to the receiver just as well.
func (e *Endpoint) heartbeatLoop(p *peer) {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			select {
			case p.q <- outFrame{hb: true}:
			default:
			}
		}
	}
}

// detectorLoop expires silent peers.
func (e *Endpoint) detectorLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			now := time.Now()
			var downs []transport.NodeID
			e.mu.Lock()
			for id, isUp := range e.up {
				if isUp && now.Sub(e.lastSeen[id]) > e.opts.FailTimeout {
					e.up[id] = false
					downs = append(downs, id)
				}
			}
			e.mu.Unlock()
			for _, id := range downs {
				e.gPeersUp.Add(-1)
				e.o.Emit("peer-down", obs.KV("peer", id))
				e.mbox.Put(transport.Item{Kind: transport.KindDown, From: id})
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

// writeFrameTo writes one frame using the caller's header scratch buffer
// (hot path: no per-frame allocation).
func writeFrameTo(w io.Writer, hdr *[12]byte, from transport.NodeID, payload []byte) error {
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(from))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
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

func sortIDs(ids []transport.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
