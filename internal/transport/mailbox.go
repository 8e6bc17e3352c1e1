package transport

import (
	"sync"

	"paso/internal/obs"
)

// Mailbox is an unbounded FIFO queue bridging asynchronous senders to a
// channel-based receiver. Network semantics require sends to never block on
// slow receivers (a LAN does not exert backpressure on the sender's peer);
// the queue is bounded in practice by the workload in flight.
//
// Put hands an item straight to the buffered delivery channel when nothing
// is queued ahead of it: one goroutine hand-off from producer to consumer.
// Only when the channel is full does the mailbox spill — items queue in a
// slice that a pump goroutine feeds to the channel, and every later Put
// queues behind them until the pump has drained it, which keeps FIFO across
// the two paths.
type Mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond // wakes the pump: the spill queue gained an item, or Close
	// queue is the spill queue; spilling is true from the first spilled item
	// until the pump has handed over the last, and bars Put from the channel.
	queue    []Item
	spilling bool
	closed   bool
	out      chan Item
	stop     chan struct{}
	done     chan struct{}

	// Backpressure watermarks (nil until Instrument): the spill queue is the
	// unbounded part, so its depth is where inbound overload shows up; 0 for
	// as long as the delivery channel alone keeps up.
	gDepth *obs.Gauge
	gHwm   *obs.Gauge
	hwm    int
}

// outBuffer is the delivery channel's capacity: the few hundred small frames
// one socket read or one sender's burst produces while the consumer works
// through its previous batch, so that steady traffic never wakes the pump.
const outBuffer = 256

// Instrument attaches depth and high-watermark gauges for the spill queue;
// every spilled Put and pump step keeps them current. Nil gauges detach.
func (m *Mailbox) Instrument(depth, hwm *obs.Gauge) {
	m.mu.Lock()
	m.gDepth, m.gHwm = depth, hwm
	m.mu.Unlock()
}

// noteDepth publishes the spill queue's depth; callers hold m.mu.
func (m *Mailbox) noteDepth() {
	if m.gDepth == nil {
		return
	}
	d := len(m.queue)
	m.gDepth.Set(int64(d))
	if d > m.hwm {
		m.hwm = d
		if m.gHwm != nil {
			m.gHwm.Set(int64(d))
		}
	}
}

// NewMailbox creates a mailbox and starts its pump goroutine. Call Close to
// stop the pump and close the output channel.
func NewMailbox() *Mailbox {
	m := &Mailbox{
		out:  make(chan Item, outBuffer),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	go m.pump()
	return m
}

// Put enqueues an item and never blocks; on a closed mailbox it is a no-op.
func (m *Mailbox) Put(it Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if !m.spilling {
		// Non-blocking, so safe under the lock, which orders the send
		// against other producers and against Close closing the channel.
		select {
		case m.out <- it:
			return
		default:
			m.spilling = true
		}
	}
	m.queue = append(m.queue, it)
	m.noteDepth()
	m.cond.Signal()
}

// Out returns the delivery channel. It is closed after Close once the pump
// exits.
func (m *Mailbox) Out() <-chan Item { return m.out }

// Len returns the number of undelivered items: those waiting in the
// delivery channel plus those spilled behind it.
func (m *Mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue) + len(m.out)
}

// Close stops the mailbox; pending undelivered items are discarded (a
// crashed machine loses its queue). Close blocks until the pump exits and
// is idempotent.
func (m *Mailbox) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.queue = nil
		close(m.stop)
		m.cond.Signal()
	}
	m.mu.Unlock()
	<-m.done
}

// pump feeds spilled items to the delivery channel, oldest first, and on
// Close discards what the channel still buffers and closes it.
func (m *Mailbox) pump() {
	defer close(m.done)
	defer func() {
		// closed is set: no Put sends any more.
		for {
			select {
			case <-m.out:
			default:
				close(m.out)
				return
			}
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for len(m.queue) == 0 && !m.closed {
			m.spilling = false // all handed over: Put may use the channel again
			m.cond.Wait()
		}
		if m.closed {
			return
		}
		// The head stays queued while it is delivered, so Len keeps counting
		// it. Deliver outside the lock so Put never waits on the consumer;
		// give up if Close races with a consumer that stopped reading.
		it := m.queue[0]
		m.mu.Unlock()
		select {
		case m.out <- it:
		case <-m.stop:
		}
		m.mu.Lock()
		if m.closed {
			return
		}
		m.queue[0] = Item{} // release the payload reference now, not at overwrite
		m.queue = m.queue[1:]
		if len(m.queue) == 0 {
			// Fully drained: drop the backing array. Reslicing alone would
			// pin the burst's high-water-mark allocation (and every popped
			// prefix) for the life of the endpoint.
			m.queue = nil
		}
		m.noteDepth()
	}
}
