package transport

import (
	"sync"
	"testing"
	"time"
)

func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox()
	defer m.Close()
	for i := 0; i < 100; i++ {
		m.Put(Item{Kind: KindMsg, From: NodeID(i)})
	}
	for i := 0; i < 100; i++ {
		it := <-m.Out()
		if it.From != NodeID(i) {
			t.Fatalf("got %d, want %d", it.From, i)
		}
	}
}

func TestMailboxPutNeverBlocks(t *testing.T) {
	m := NewMailbox()
	defer m.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			m.Put(Item{Kind: KindMsg})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked with no consumer")
	}
	if m.Len() == 0 {
		t.Error("queue should hold items")
	}
}

func TestMailboxCloseClosesOut(t *testing.T) {
	m := NewMailbox()
	m.Put(Item{Kind: KindMsg})
	m.Close()
	// Drain: channel must be closed (possibly after delivering buffered
	// items that raced with Close).
	timeout := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-m.Out():
			if !ok {
				return
			}
		case <-timeout:
			t.Fatal("Out never closed")
		}
	}
}

func TestMailboxCloseIdempotent(t *testing.T) {
	m := NewMailbox()
	m.Close()
	m.Close() // must not panic or hang
	m.Put(Item{Kind: KindMsg})
	if m.Len() != 0 {
		t.Error("Put after Close enqueued")
	}
}

func TestMailboxCloseWithStuckConsumer(t *testing.T) {
	m := NewMailbox()
	m.Put(Item{Kind: KindMsg})
	m.Put(Item{Kind: KindMsg})
	// Nobody reads Out; the pump is blocked delivering item 1.
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with stuck consumer")
	}
}

func TestMailboxReleasesBackingArrayWhenDrained(t *testing.T) {
	m := NewMailbox()
	defer m.Close()
	const burst = 4096
	for i := 0; i < burst; i++ {
		m.Put(Item{Kind: KindMsg, From: NodeID(i), Payload: make([]byte, 1024)})
	}
	for i := 0; i < burst; i++ {
		<-m.Out()
	}
	// The pump blocks handing the last item to us before it re-checks the
	// queue, so poll until it has observed the drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		released := m.queue == nil
		m.mu.Unlock()
		if released {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backing array still pinned after a full drain")
		}
		time.Sleep(time.Millisecond)
	}
	// The mailbox must keep working after the reset.
	m.Put(Item{Kind: KindMsg, From: 7})
	if it := <-m.Out(); it.From != 7 {
		t.Fatalf("post-drain delivery got %+v", it)
	}
}

// TestMailboxFIFOAcrossSpill drives producers whose items cross between the
// direct hand-off and the spill queue many times — the consumer stalls long
// enough for the channel to fill, then drains everything — and checks that
// each producer's items arrive in the order it put them, none lost.
func TestMailboxFIFOAcrossSpill(t *testing.T) {
	m := NewMailbox()
	defer m.Close()
	const producers, perProducer = 4, 5 * outBuffer
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m.Put(Item{Kind: KindMsg, From: NodeID(p), Payload: []byte{byte(i), byte(i >> 8)}})
				if i%outBuffer == 0 {
					time.Sleep(time.Millisecond) // let the consumer catch up: back to the direct path
				}
			}
		}(p)
	}
	next := make([]int, producers)
	for got := 0; got < producers*perProducer; got++ {
		if got%(2*outBuffer) == 0 {
			time.Sleep(2 * time.Millisecond) // stall: the channel fills and producers spill
		}
		it := <-m.Out()
		seq := int(it.Payload[0]) | int(it.Payload[1])<<8
		if seq != next[it.From] {
			t.Fatalf("producer %d: got item %d, want %d", it.From, seq, next[it.From])
		}
		next[it.From]++
	}
	wg.Wait()
	if n := m.Len(); n != 0 {
		t.Fatalf("Len() = %d after everything was received", n)
	}
}

// TestMailboxLenCountsBothPaths: with no consumer the first outBuffer items
// sit in the channel and the rest spill; Len counts all of them, and goes to
// zero with Close, after which Put is a no-op.
func TestMailboxLenCountsBothPaths(t *testing.T) {
	m := NewMailbox()
	const n = outBuffer + 100
	for i := 0; i < n; i++ {
		m.Put(Item{Kind: KindMsg, From: NodeID(i)})
		if got := m.Len(); got != i+1 {
			t.Fatalf("Len() = %d after %d puts", got, i+1)
		}
	}
	for i := 0; i < 10; i++ {
		if it := <-m.Out(); it.From != NodeID(i) {
			t.Fatalf("got %d, want %d", it.From, i)
		}
	}
	// The pump refills the channel from the spill queue; an item it is moving
	// is counted on both sides for a moment, so poll for the settled value.
	deadline := time.Now().Add(5 * time.Second)
	for m.Len() != n-10 {
		if time.Now().After(deadline) {
			t.Fatalf("Len() = %d, want %d", m.Len(), n-10)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	m.Put(Item{Kind: KindMsg})
	if got := m.Len(); got != 0 {
		t.Fatalf("Len() = %d after Close", got)
	}
	if _, ok := <-m.Out(); ok {
		t.Fatal("Out delivered an item after Close")
	}
}

// BenchmarkMailboxPutRecv measures one item's trip through an otherwise
// empty mailbox, Put to receive: the cost a message pays on every network
// leg when the consumer keeps up.
func BenchmarkMailboxPutRecv(b *testing.B) {
	m := NewMailbox()
	defer m.Close()
	it := Item{Kind: KindMsg, From: 1, Payload: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(it)
		<-m.Out()
	}
}

func TestItemKindString(t *testing.T) {
	if KindMsg.String() != "msg" || KindUp.String() != "up" || KindDown.String() != "down" {
		t.Error("kind names wrong")
	}
	if ItemKind(0).String() != "invalid" {
		t.Error("zero kind should be invalid")
	}
}
