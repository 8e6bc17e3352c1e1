// Package transport defines the point-to-point messaging abstraction the
// virtual-synchrony layer is built on (paper §3).
//
// A transport connects a set of nodes. Each node owns an Endpoint through
// which it sends byte payloads to peers and receives an ordered stream of
// items: incoming messages interleaved with node-up/node-down events from
// the failure detector. Delivering membership events in the same stream as
// messages lets the group layer order view changes against message traffic,
// which is the heart of virtual synchrony.
//
// Two implementations exist: the simulated bus LAN in package simnet
// (deterministic, cost-metered, crash/restart by API call) and a TCP
// transport in package tcp (real sockets, heartbeat failure detection).
package transport

import (
	"errors"
	"sync"
)

// NodeID identifies a machine on the network. IDs are small positive
// integers; the group layer uses "lowest live ID" as its coordinator rule.
type NodeID uint64

// ItemKind discriminates the entries of an endpoint's receive stream.
type ItemKind int

// Receive-stream item kinds.
const (
	// KindMsg is an application payload from a peer.
	KindMsg ItemKind = iota + 1
	// KindUp reports that a node joined (or rejoined) the network.
	KindUp
	// KindDown reports that a node crashed or left the network.
	KindDown
)

// String names the kind.
func (k ItemKind) String() string {
	switch k {
	case KindMsg:
		return "msg"
	case KindUp:
		return "up"
	case KindDown:
		return "down"
	default:
		return "invalid"
	}
}

// Item is one entry in an endpoint's ordered receive stream.
type Item struct {
	Kind ItemKind
	// From is the sending node for KindMsg, or the subject node for
	// KindUp/KindDown.
	From NodeID
	// Payload is the message body for KindMsg, nil otherwise.
	//
	// Ownership: the buffer belongs to the receiver from the moment the
	// Item is read off Recv. Every transport guarantees it is freshly
	// allocated per frame (TCP) or an exclusive copy (simnet), is never
	// mutated or reused by the transport afterward, and is released only
	// by garbage collection. Receivers may therefore decode by aliasing —
	// retaining sub-slices of Payload indefinitely without copying — which
	// is what keeps the socket-to-store delivery path copy-free (DESIGN.md,
	// "Delivery buffer ownership").
	Payload []byte
}

// Common transport errors.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownPeer is returned when sending to a node that was never
	// part of the network.
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// OwnedSender is the pooled-buffer send path every Endpoint offers. It
// accepts payload buffers drawn from GetBuf and takes ownership: once the
// frame has been written to the wire (or dropped), the endpoint recycles
// the buffer with PutBuf. The caller must not read, mutate, or retain the
// buffer after SendOwned returns.
type OwnedSender interface {
	// SendOwned is Send with buffer-ownership transfer; same delivery
	// semantics, same errors.
	SendOwned(to NodeID, payload []byte) error
}

// bufPool recycles payload buffers between the protocol encoders and the
// transports' write paths. Buffers are pooled as *[]byte so Get avoids an
// allocation; the steady-state encode path costs zero allocations once the
// pool is warm.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledBuf bounds what PutBuf keeps: buffers grown by a jumbo frame
// (state transfers can reach megabytes) are dropped so the pool does not
// pin them forever.
const maxPooledBuf = 1 << 20

// GetBuf returns an empty payload buffer from the shared pool. Append to
// it, hand the result to SendOwned, and the transport recycles it; on any
// other path the buffer is garbage collected like a plain allocation.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf returns a buffer to the shared pool. Callers must guarantee no
// reference to the buffer survives the call. Oversized buffers are dropped.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	bufPool.Put(&b)
}

// Endpoint is one node's attachment to the network. Send never blocks on
// the receiver; delivery is asynchronous and reliable FIFO per sender pair
// while both nodes stay up.
type Endpoint interface {
	// ID returns this node's identity.
	ID() NodeID
	// Send transmits payload to the peer. Sending to a down node is not
	// an error; the message is silently dropped (as on a real LAN).
	Send(to NodeID, payload []byte) error
	// OwnedSender is Send for pooled buffers; the group layer sends every
	// frame through it.
	OwnedSender
	// Recv returns the ordered receive stream. The channel is closed when
	// the endpoint closes.
	Recv() <-chan Item
	// Alive returns the set of currently-live nodes as known to the local
	// failure detector, including this node.
	Alive() []NodeID
	// Close detaches from the network and releases resources.
	Close() error
}
