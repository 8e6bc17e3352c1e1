// Package simnet implements the simulated bus-based local area network the
// paper's cost analysis assumes (§3.3): reliable FIFO point-to-point
// messages, no hardware multicast, a global α+β cost meter, and crash/
// restart of whole machines (§3.1: a crash erases local memory; in-flight
// and queued messages are lost).
//
// The hub serializes all deliveries under one lock, which models the shared
// bus: one frame at a time. Every send is metered whether or not the
// destination is alive — a dead receiver does not un-occupy the bus.
//
// # Fault injection
//
// The hub is also the seam for the deterministic fault-injection plane
// specified in FAULTS.md. Two mechanisms compose, both applied under the
// bus lock:
//
//   - An Injector (SetInjector) decides the fate of each frame — drop,
//     duplicate, delay — as a pure per-link function, so fault schedules
//     replay from a seed (see internal/faults.Plan).
//   - One-way Cuts (Cut/Uncut) model network partitions: frames crossing a
//     cut are dropped, and the hub synthesizes the failure-detector events
//     a real detector would produce (the victim's side observes Down at
//     cut time, Up at heal time).
//
// Loopback frames (from == to) are exempt from injection: a machine's
// path to itself cannot fail separately from the machine.
package simnet

import (
	"fmt"
	"sort"
	"sync"

	"paso/internal/cost"
	"paso/internal/transport"
)

// Fate is an Injector's verdict on one frame. The zero value delivers the
// frame normally.
type Fate struct {
	// Drop discards the frame after metering: it occupied the bus but
	// never reaches the destination mailbox (FAULTS.md §2.1).
	Drop bool
	// Duplicate delivers this many extra copies immediately after the
	// original, each metered as its own transmission (FAULTS.md §2.2).
	Duplicate int
	// DelayFrames holds the frame at the hub until this many further
	// frames have traversed the bus, then delivers it — later frames on
	// the same link may overtake it, so delay is also the reorder fault
	// (FAULTS.md §2.3). A frame whose destination crashes or is cut while
	// held is dropped with the destination's queue (§3.1).
	DelayFrames int
}

// Injector decides the fate of frames traversing the hub. Frame is called
// under the bus lock for every non-loopback send — implementations must
// not block, must not call back into the Net, and must be safe for use
// from any sending goroutine (the lock serializes calls). Decisions must
// be deterministic per (from, to, per-link frame index) for fault
// schedules to replay from a seed; internal/faults.Plan is the reference
// implementation.
type Injector interface {
	Frame(from, to transport.NodeID, size int) Fate
}

// heldFrame is a delayed frame waiting out its hub-traversal countdown.
type heldFrame struct {
	from, to  transport.NodeID
	payload   []byte // already copied
	remaining int
}

// cutKey identifies a directed link for partition cuts.
type cutKey struct{ from, to transport.NodeID }

// Net is a simulated LAN. The zero value is not usable; construct with New.
// All methods are safe for concurrent use; the hub lock serializes frame
// deliveries and fault decisions.
type Net struct {
	model cost.Model
	meter *cost.Counter

	mu      sync.Mutex
	nodes   map[transport.NodeID]*Endpoint // live endpoints only
	inj     Injector
	cuts    map[cutKey]bool
	delayed []*heldFrame
}

// New creates an empty network metering costs under the given model.
func New(model cost.Model) *Net {
	return &Net{
		model: model,
		meter: &cost.Counter{},
		nodes: make(map[transport.NodeID]*Endpoint),
		cuts:  make(map[cutKey]bool),
	}
}

// Meter returns the bus cost meter. All sends by all nodes accumulate here.
func (n *Net) Meter() *cost.Counter { return n.meter }

// SetInjector installs (or, with nil, removes) the fault injector consulted
// for every non-loopback frame. Installation is atomic with respect to the
// bus: frames already traversing complete under the previous injector.
func (n *Net) SetInjector(i Injector) {
	n.mu.Lock()
	n.inj = i
	n.mu.Unlock()
}

// Cut severs the directed link from→to: subsequent frames in that
// direction are dropped at the hub, and — both nodes being live — the
// receiver observes a synthesized Down(from) event, modeling its failure
// detector declaring the silent peer dead (FAULTS.md §2.4–2.5). Held
// delayed frames crossing the cut are dropped at release time. Cutting an
// already-cut link is a no-op.
func (n *Net) Cut(from, to transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := cutKey{from, to}
	if n.cuts[k] {
		return
	}
	n.cuts[k] = true
	if _, fromLive := n.nodes[from]; !fromLive {
		return
	}
	if dst, ok := n.nodes[to]; ok {
		dst.mbox.Put(transport.Item{Kind: transport.KindDown, From: from})
	}
}

// Uncut heals the directed link from→to. The receiver observes a
// synthesized Up(from) event when both ends are live, re-priming its
// failure detector (the group layer then interrogates the returning peer
// and reconciles any divergence — PROTOCOL.md "Divergence
// reconciliation"). Uncutting a healthy link is a no-op.
func (n *Net) Uncut(from, to transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := cutKey{from, to}
	if !n.cuts[k] {
		return
	}
	delete(n.cuts, k)
	if _, fromLive := n.nodes[from]; !fromLive {
		return
	}
	if dst, ok := n.nodes[to]; ok {
		dst.mbox.Put(transport.Item{Kind: transport.KindUp, From: from})
	}
}

// Join attaches a node (or re-attaches a restarted one). All live peers
// that can currently hear the newcomer receive a KindUp event; the new
// endpoint's stream starts with KindUp events for every already-live peer
// it can hear, so its failure detector is primed. Links crossing an active
// Cut stay silent in the cut direction: a machine restarting inside a
// partition observes only its own side.
func (n *Net) Join(id transport.NodeID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("simnet: node %d already live", id)
	}
	ep := &Endpoint{id: id, net: n, mbox: transport.NewMailbox()}
	for peerID, peer := range n.nodes {
		if !n.cuts[cutKey{id, peerID}] {
			peer.mbox.Put(transport.Item{Kind: transport.KindUp, From: id})
		}
		if !n.cuts[cutKey{peerID, id}] {
			ep.mbox.Put(transport.Item{Kind: transport.KindUp, From: peerID})
		}
	}
	n.nodes[id] = ep
	return ep, nil
}

// Crash detaches a node abruptly: its endpoint closes, queued and delayed
// in-flight messages are lost (§3.1), and live peers that could hear it
// receive a KindDown event. Crashing an unknown or already-down node is a
// no-op.
func (n *Net) Crash(id transport.NodeID) {
	n.mu.Lock()
	ep, ok := n.nodes[id]
	if !ok {
		n.mu.Unlock()
		return
	}
	delete(n.nodes, id)
	// §3.1: in-flight messages are lost — purge held frames to or from
	// the crashed machine so a restarted incarnation never receives its
	// predecessor's traffic.
	kept := n.delayed[:0]
	for _, h := range n.delayed {
		if h.from != id && h.to != id {
			kept = append(kept, h)
		}
	}
	n.delayed = kept
	for peerID, peer := range n.nodes {
		if !n.cuts[cutKey{id, peerID}] {
			peer.mbox.Put(transport.Item{Kind: transport.KindDown, From: id})
		}
	}
	n.mu.Unlock()
	// Close outside the hub lock: Close waits for the pump goroutine,
	// which may be blocked delivering to a consumer that is itself trying
	// to send (and would need the hub lock).
	ep.markClosed()
	ep.mbox.Close()
}

// Flap simulates an asymmetric failure-detector glitch: every OTHER live
// node observes id go down and immediately come back up, while id itself
// notices nothing and keeps running. This is the hazard a heartbeat
// detector over real networks produces under load (see the TCP transport),
// reproduced deterministically for tests: the flapped node gets evicted
// from its groups without ever learning it, and the group layer's
// interrogation/restate path must heal the divergence.
func (n *Net) Flap(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; !ok {
		return
	}
	for peerID, peer := range n.nodes {
		if peerID == id {
			continue
		}
		peer.mbox.Put(transport.Item{Kind: transport.KindDown, From: id})
		peer.mbox.Put(transport.Item{Kind: transport.KindUp, From: id})
	}
}

// Live reports whether the node is currently attached.
func (n *Net) Live(id transport.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.nodes[id]
	return ok
}

// aliveFor returns the sorted live node set as observable by self: peers
// whose link toward self is cut are invisible (their frames — including
// the implicit liveness signal — cannot reach it).
func (n *Net) aliveFor(self transport.NodeID) []transport.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]transport.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		if id != self && n.cuts[cutKey{id, self}] {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// delivery is a frame ready to leave the hub for a destination mailbox.
// Deliveries are collected under the bus lock and Put after it is released
// (Mailbox.Put never blocks, but keeping the lock narrow keeps the hub a
// pure serialization point).
type delivery struct {
	dst     *Endpoint
	from    transport.NodeID
	payload []byte
}

// advanceDelayedLocked ticks every held frame's countdown by one bus
// traversal and returns the frames whose delay elapsed. Cut and liveness
// are re-checked at release time: a destination that crashed or was
// partitioned away while the frame was held loses it (§3.1 in-flight
// loss). Callers must hold n.mu.
func (n *Net) advanceDelayedLocked() []delivery {
	if len(n.delayed) == 0 {
		return nil
	}
	var out []delivery
	kept := n.delayed[:0]
	for _, h := range n.delayed {
		h.remaining--
		if h.remaining > 0 {
			kept = append(kept, h)
			continue
		}
		if n.cuts[cutKey{h.from, h.to}] {
			continue
		}
		if dst, ok := n.nodes[h.to]; ok {
			out = append(out, delivery{dst: dst, from: h.from, payload: h.payload})
		}
	}
	n.delayed = kept
	return out
}

// Tick advances the delayed-frame countdowns by one synthetic bus
// traversal without carrying a frame. Harnesses use it to guarantee
// progress for held frames when real traffic has quiesced — e.g. a delayed
// reply that nothing would otherwise follow (FAULTS.md §2.3). A Tick on a
// net with no held frames is a no-op.
func (n *Net) Tick() {
	n.mu.Lock()
	out := n.advanceDelayedLocked()
	n.mu.Unlock()
	for _, d := range out {
		d.dst.mbox.Put(transport.Item{Kind: transport.KindMsg, From: d.from, Payload: d.payload})
	}
}

// send delivers payload from one endpoint to another, metering the bus and
// applying the fault plane (cuts, then the injector) under the hub lock.
// Every traversal also advances the delayed-frame countdowns, releasing
// frames whose delay has elapsed. A frame from an endpoint that is no
// longer attached is lost: its peers have already been told it is down,
// and nothing of it may reach them after that (transport.Endpoint).
func (n *Net) send(src *Endpoint, to transport.NodeID, payload []byte) {
	from := src.id
	n.meter.AddMsg(n.model, len(payload))
	var out []delivery

	n.mu.Lock()
	fate := Fate{}
	if n.nodes[from] != src {
		fate.Drop = true
	} else if from != to {
		if n.cuts[cutKey{from, to}] {
			fate.Drop = true
		} else if n.inj != nil {
			fate = n.inj.Frame(from, to, len(payload))
		}
	}
	var hold *heldFrame
	switch {
	case fate.Drop:
		// Transmitted, metered, never delivered.
	case fate.DelayFrames > 0:
		cp := make([]byte, len(payload))
		copy(cp, payload)
		hold = &heldFrame{from: from, to: to, payload: cp, remaining: fate.DelayFrames}
	default:
		if dst, ok := n.nodes[to]; ok {
			copies := 1 + fate.Duplicate
			for c := 0; c < copies; c++ {
				// Exclusive copy per delivery: the receiver owns the
				// buffer outright (transport.Item ownership contract) and
				// may alias into it indefinitely.
				cp := make([]byte, len(payload))
				copy(cp, payload)
				out = append(out, delivery{dst: dst, from: from, payload: cp})
			}
			// Extra copies occupy the bus like any retransmission.
			for c := 0; c < fate.Duplicate; c++ {
				n.meter.AddMsg(n.model, len(payload))
			}
		}
	}
	// This frame's traversal is the clock tick that advances earlier-held
	// frames; the frame itself (if held) starts counting from the NEXT
	// traversal, and releases deliver after the frame that freed them.
	out = append(out, n.advanceDelayedLocked()...)
	if hold != nil {
		n.delayed = append(n.delayed, hold)
	}
	n.mu.Unlock()

	for _, d := range out {
		d.dst.mbox.Put(transport.Item{Kind: transport.KindMsg, From: d.from, Payload: d.payload})
	}
}

// Endpoint is a node's attachment to the simulated LAN. Methods are safe
// for concurrent use; Send never blocks on the receiver (mailboxes are
// unbounded), and a crashed endpoint's Send fails with transport.ErrClosed.
type Endpoint struct {
	id   transport.NodeID
	net  *Net
	mbox *transport.Mailbox

	mu     sync.Mutex
	closed bool
}

var _ transport.Endpoint = (*Endpoint)(nil)

// ID implements transport.Endpoint.
func (e *Endpoint) ID() transport.NodeID { return e.id }

// Send implements transport.Endpoint: asynchronous, reliable-FIFO per
// sender pair unless the fault plane says otherwise (FAULTS.md §2).
// Sending to a down or partitioned-away node is not an error; the frame is
// metered and lost, as on a real LAN.
func (e *Endpoint) Send(to transport.NodeID, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	e.net.send(e, to, payload)
	return nil
}

// SendOwned implements transport.Endpoint. The simulated bus copies the
// payload per delivery before Send returns, so the pooled buffer can be
// recycled immediately — encode-buffer reuse behaves identically in
// simulation and deployment.
func (e *Endpoint) SendOwned(to transport.NodeID, payload []byte) error {
	err := e.Send(to, payload)
	transport.PutBuf(payload)
	return err
}

// Recv implements transport.Endpoint. The channel closes when the node
// crashes or leaves; queued items are discarded at that point (§3.1).
func (e *Endpoint) Recv() <-chan transport.Item { return e.mbox.Out() }

// Alive implements transport.Endpoint: the live nodes as observable by
// this endpoint's failure detector — peers behind an active inbound Cut
// are excluded (this side cannot hear them).
func (e *Endpoint) Alive() []transport.NodeID { return e.net.aliveFor(e.id) }

// Close implements transport.Endpoint: a graceful leave, equivalent to a
// crash at the transport level (peers see KindDown, queued frames lost).
func (e *Endpoint) Close() error {
	e.net.Crash(e.id)
	return nil
}

func (e *Endpoint) markClosed() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
}
