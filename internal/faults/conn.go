package faults

import (
	"errors"
	"net"
	"sync"

	"paso/internal/transport"
)

// ConnMode is the failure mode a Director imposes on a peer's connection.
type ConnMode int

const (
	// ModePass forwards writes untouched (the default for unset peers).
	ModePass ConnMode = iota
	// ModeDrop discards every write, reporting success: batches —
	// including heartbeats — vanish after framing but before the socket
	// (FAULTS.md §2.9). The receiving side's heartbeat detector must
	// declare the sender down.
	ModeDrop
	// ModeStall blocks writes until the mode changes or the connection
	// closes: the writer goroutine wedges mid-flush and send queues fill
	// (FAULTS.md §2.10).
	ModeStall
	// ModeSever closes the underlying socket and fails the write; the
	// writer drops its batch and redials (FAULTS.md §2.11).
	ModeSever
)

// String names the mode for logs and error messages.
func (m ConnMode) String() string {
	switch m {
	case ModePass:
		return "pass"
	case ModeDrop:
		return string(KindConnDrop)
	case ModeStall:
		return string(KindConnStall)
	case ModeSever:
		return string(KindConnSever)
	default:
		return "unknown"
	}
}

// ErrSevered is returned by Conn.Write when the director severed the link.
var ErrSevered = errors.New("faults: connection severed")

// Director steers the per-peer connection wrappers of one TCP endpoint.
// Install its Wrap method as tcp.Options.WrapConn; then Set/Clear flip
// failure modes at runtime. Safe for concurrent use; mode changes apply to
// in-flight writes (a stalled write observes the change and resumes).
type Director struct {
	mu     sync.Mutex
	modes  map[transport.NodeID]ConnMode
	change chan struct{} // closed and replaced on every Set/Clear
}

// NewDirector builds a director with every peer in ModePass.
func NewDirector() *Director {
	return &Director{
		modes:  make(map[transport.NodeID]ConnMode),
		change: make(chan struct{}),
	}
}

// Set imposes a mode on the named peer's connections. Stalled writers are
// woken to observe the new mode.
func (d *Director) Set(peer transport.NodeID, m ConnMode) {
	d.mu.Lock()
	if m == ModePass {
		delete(d.modes, peer)
	} else {
		d.modes[peer] = m
	}
	close(d.change)
	d.change = make(chan struct{})
	d.mu.Unlock()
}

// Clear returns the peer to ModePass (equivalent to Set(peer, ModePass)).
func (d *Director) Clear(peer transport.NodeID) { d.Set(peer, ModePass) }

// mode returns the peer's mode plus a channel that closes on the next
// mode change (for stalled writers to wait on).
func (d *Director) mode(peer transport.NodeID) (ConnMode, <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.modes[peer], d.change
}

// Wrap is the tcp.Options.WrapConn hook: it interposes a Conn between the
// endpoint and the freshly dialed socket.
func (d *Director) Wrap(peer transport.NodeID, c net.Conn) net.Conn {
	tw, _ := c.(tryWriter)
	return &Conn{Conn: c, d: d, peer: peer, tw: tw, closed: make(chan struct{})}
}

// tryWriter is the TCP transport's inline-write hook: a sender writes a
// frame itself, without blocking, when nothing to the peer is queued.
type tryWriter interface {
	TryWrite(hdr, payload []byte) (int, error)
}

// Conn is a net.Conn whose writes obey a Director (FAULTS.md §2.9–2.11).
// Reads and deadlines pass through to the wrapped connection, so inbound
// traffic — including the remote's heartbeats — still flows: conn faults
// are one-way, exactly like a half-broken link.
type Conn struct {
	net.Conn
	d    *Director
	peer transport.NodeID
	tw   tryWriter // the wrapped connection's inline writer, if it has one

	once   sync.Once
	closed chan struct{}
}

// Write applies the director's current mode. ModeStall blocks until the
// mode changes or the connection is closed (either end), so the endpoint
// stays closeable and no goroutine leaks.
func (c *Conn) Write(b []byte) (int, error) {
	for {
		m, changed := c.d.mode(c.peer)
		switch m {
		case ModePass:
			return c.Conn.Write(b)
		case ModeDrop:
			return len(b), nil
		case ModeSever:
			c.Conn.Close()
			return 0, ErrSevered
		case ModeStall:
			select {
			case <-changed:
				// Re-read the mode and retry the write.
			case <-c.closed:
				return 0, net.ErrClosed
			}
		default:
			return c.Conn.Write(b)
		}
	}
}

// TryWrite applies the director's current mode to a frame the transport
// would write inline (hdr, then payload), so conn faults cover that path
// too. ModePass hands it to the wrapped connection's own inline writer, or
// reports that it would block when there is none; ModeDrop reports it
// written; ModeStall reports that it would block, so the frame queues to
// the writer goroutine, which then stalls in Write; ModeSever closes the
// socket and fails.
func (c *Conn) TryWrite(hdr, payload []byte) (int, error) {
	m, _ := c.d.mode(c.peer)
	switch m {
	case ModeDrop:
		return len(hdr) + len(payload), nil
	case ModeStall:
		return 0, nil
	case ModeSever:
		c.Conn.Close()
		return 0, ErrSevered
	}
	if c.tw == nil {
		return 0, nil
	}
	return c.tw.TryWrite(hdr, payload)
}

// Close unblocks any stalled write, then closes the wrapped connection.
func (c *Conn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
