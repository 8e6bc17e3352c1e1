package simnet

import (
	"sync"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/transport"
)

func newNet(t *testing.T) *Net {
	t.Helper()
	return New(cost.Model{Alpha: 10, Beta: 1})
}

// recvMsg pulls items until a KindMsg arrives or times out.
func recvMsg(t *testing.T, ep *Endpoint) transport.Item {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case it, ok := <-ep.Recv():
			if !ok {
				t.Fatal("stream closed while waiting for message")
			}
			if it.Kind == transport.KindMsg {
				return it
			}
		case <-timeout:
			t.Fatal("timed out waiting for message")
		}
	}
}

// recvEvent pulls items until an Up/Down event for the given node arrives.
func recvEvent(t *testing.T, ep *Endpoint, kind transport.ItemKind, node transport.NodeID) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case it, ok := <-ep.Recv():
			if !ok {
				t.Fatalf("stream closed waiting for %v(%d)", kind, node)
			}
			if it.Kind == kind && it.From == node {
				return
			}
		case <-timeout:
			t.Fatalf("timed out waiting for %v(%d)", kind, node)
		}
	}
}

func TestSendDeliver(t *testing.T) {
	n := newNet(t)
	a, err := n.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	it := recvMsg(t, b)
	if it.From != 1 || string(it.Payload) != "hi" {
		t.Fatalf("got %+v", it)
	}
}

func TestFIFOPerSender(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	for i := byte(0); i < 50; i++ {
		if err := a.Send(2, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 50; i++ {
		it := recvMsg(t, b)
		if it.Payload[0] != i {
			t.Fatalf("out of order: got %d want %d", it.Payload[0], i)
		}
	}
}

func TestPayloadCopied(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	buf := []byte("abc")
	_ = a.Send(2, buf)
	buf[0] = 'z'
	it := recvMsg(t, b)
	if string(it.Payload) != "abc" {
		t.Fatalf("payload aliased sender buffer: %q", it.Payload)
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	n := newNet(t)
	if _, err := n.Join(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Join(1); err == nil {
		t.Fatal("double join should fail")
	}
}

func TestUpEventsOnJoin(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	recvEvent(t, a, transport.KindUp, 2) // existing node learns of 2
	recvEvent(t, b, transport.KindUp, 1) // joiner is primed with 1
}

func TestCrashEventsAndStreamClose(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	n.Crash(2)
	recvEvent(t, a, transport.KindDown, 2)
	// b's stream must close.
	timeout := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-b.Recv():
			if !ok {
				goto closed
			}
		case <-timeout:
			t.Fatal("crashed endpoint stream never closed")
		}
	}
closed:
	if err := b.Send(1, []byte("x")); err != transport.ErrClosed {
		t.Fatalf("Send after crash = %v, want ErrClosed", err)
	}
}

func TestCrashLosesQueuedMessages(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	_ = a.Send(2, []byte("lost"))
	n.Crash(2)
	// Restart node 2: it must NOT receive the pre-crash message.
	b2, err := n.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	_ = a.Send(2, []byte("fresh"))
	it := recvMsg(t, b2)
	if string(it.Payload) != "fresh" {
		t.Fatalf("restarted node got stale message %q", it.Payload)
	}
	_ = b
}

// TestNoFrameAfterDown: a send the crash raced — already past the endpoint's
// closed check when the hub detached it — is lost, so a peer never receives
// a frame from a node after that node's Down, not even from the
// incarnation a restart replaced.
func TestNoFrameAfterDown(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	n.Crash(1)
	n.send(a, 2, []byte("late"))
	a2, _ := n.Join(1)
	n.send(a, 2, []byte("stale incarnation"))
	_ = a2.Send(2, []byte("fresh"))
	recvEvent(t, b, transport.KindDown, 1)
	if got := string(recvMsg(t, b).Payload); got != "fresh" {
		t.Fatalf("peer received %q from a detached endpoint", got)
	}
}

func TestSendToDeadNodeIsMeteredNotError(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	before := n.Meter().Snapshot().Messages
	if err := a.Send(99, []byte("void")); err != nil {
		t.Fatalf("send to dead node errored: %v", err)
	}
	if after := n.Meter().Snapshot().Messages; after != before+1 {
		t.Errorf("bus not metered for dead-destination frame")
	}
}

func TestAliveSorted(t *testing.T) {
	n := newNet(t)
	_, _ = n.Join(3)
	ep, _ := n.Join(1)
	_, _ = n.Join(2)
	got := ep.Alive()
	want := []transport.NodeID{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("Alive = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Alive = %v, want %v", got, want)
		}
	}
	n.Crash(2)
	if len(ep.Alive()) != 2 {
		t.Errorf("Alive after crash = %v", ep.Alive())
	}
	if !n.Live(1) || n.Live(2) {
		t.Error("Live() wrong")
	}
}

func TestMeterAccumulatesAlphaBeta(t *testing.T) {
	n := New(cost.Model{Alpha: 7, Beta: 2})
	a, _ := n.Join(1)
	_, _ = n.Join(2)
	_ = a.Send(2, make([]byte, 10))
	got := n.Meter().Snapshot()
	if got.MsgCost != 7+2*10 {
		t.Errorf("msg cost = %v, want 27", got.MsgCost)
	}
	if got.Bytes != 10 {
		t.Errorf("bytes = %d", got.Bytes)
	}
}

func TestCloseIsGracefulLeave(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	recvEvent(t, a, transport.KindDown, 2)
}

func TestFlapEmitsDownUpToPeersOnly(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	n.Flap(2)
	recvEvent(t, a, transport.KindDown, 2)
	recvEvent(t, a, transport.KindUp, 2)
	// The flapped node itself notices nothing and keeps working.
	if err := b.Send(1, []byte("alive")); err != nil {
		t.Fatalf("flapped node cannot send: %v", err)
	}
	it := recvMsg(t, a)
	if string(it.Payload) != "alive" {
		t.Fatalf("got %q", it.Payload)
	}
	n.Flap(99) // unknown node: no-op
}

// scriptedInjector returns canned fates in frame order (FAULTS.md §2),
// delivering normally once the script runs out.
type scriptedInjector struct {
	mu    sync.Mutex
	fates []Fate
}

func (s *scriptedInjector) Frame(from, to transport.NodeID, size int) Fate {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fates) == 0 {
		return Fate{}
	}
	f := s.fates[0]
	s.fates = s.fates[1:]
	return f
}

func TestInjectorDrop(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	n.SetInjector(&scriptedInjector{fates: []Fate{{Drop: true}}})
	if err := a.Send(2, []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	it := recvMsg(t, b)
	if string(it.Payload) != "kept" {
		t.Fatalf("dropped frame delivered: got %q", it.Payload)
	}
	// The dropped frame still occupied the bus: both sends metered.
	if got := n.Meter().Snapshot().Messages; got != 2 {
		t.Fatalf("metered %d msgs, want 2 (drops still occupy the bus)", got)
	}
}

func TestInjectorDuplicate(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	n.SetInjector(&scriptedInjector{fates: []Fate{{Duplicate: 1}}})
	if err := a.Send(2, []byte("twice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		it := recvMsg(t, b)
		if string(it.Payload) != "twice" {
			t.Fatalf("copy %d: got %q", i, it.Payload)
		}
	}
	// Each copy is metered as its own transmission.
	if got := n.Meter().Snapshot().Messages; got != 2 {
		t.Fatalf("metered %d msgs, want 2", got)
	}
}

func TestInjectorDelayReorders(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	// First frame held for 2 further hub traversals; next two pass it.
	n.SetInjector(&scriptedInjector{fates: []Fate{{DelayFrames: 2}}})
	for _, m := range []string{"late", "first", "second"} {
		if err := a.Send(2, []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 3; i++ {
		got = append(got, string(recvMsg(t, b).Payload))
	}
	want := []string{"first", "second", "late"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v (delay must reorder)", got, want)
		}
	}
}

func TestDelayedFrameLostOnCrash(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	n.Join(2)
	n.SetInjector(&scriptedInjector{fates: []Fate{{DelayFrames: 1}}})
	if err := a.Send(2, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	n.Crash(2) // held frame purged with the queue (§3.1)
	c, err := n.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	// Tick the hub past the delay window, then send a probe: the restarted
	// incarnation must see only the probe, never the predecessor's frame.
	if err := a.Send(2, []byte("tick")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("probe")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvMsg(t, c).Payload); got != "tick" {
		t.Fatalf("restarted node got %q, want %q (held frame must die with the crash)", got, "tick")
	}
}

func TestCutPartitionsAndHeals(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	drainEvents(a)
	drainEvents(b)

	// Symmetric partition: cut both directions.
	n.Cut(1, 2)
	n.Cut(2, 1)
	recvEvent(t, b, transport.KindDown, 1) // b's detector declares a dead
	recvEvent(t, a, transport.KindDown, 2) // and vice versa
	if err := a.Send(2, []byte("void")); err != nil {
		t.Fatal(err)
	}

	// Alive is cut-aware on both sides.
	if got := a.Alive(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("a.Alive() = %v during partition, want [1]", got)
	}

	// Heal: both sides see Up again, traffic flows, the cut-window frame
	// stays lost (it was dropped, not queued).
	n.Uncut(1, 2)
	n.Uncut(2, 1)
	recvEvent(t, b, transport.KindUp, 1)
	recvEvent(t, a, transport.KindUp, 2)
	if err := a.Send(2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvMsg(t, b).Payload); got != "after" {
		t.Fatalf("post-heal delivery got %q (cut-window frames must stay lost)", got)
	}
}

func TestOneWayCutIsAsymmetric(t *testing.T) {
	n := newNet(t)
	a, _ := n.Join(1)
	b, _ := n.Join(2)
	drainEvents(a)
	drainEvents(b)

	n.Cut(1, 2) // b stops hearing a; a still hears b
	recvEvent(t, b, transport.KindDown, 1)
	if err := b.Send(1, []byte("still-here")); err != nil {
		t.Fatal(err)
	}
	if got := string(recvMsg(t, a).Payload); got != "still-here" {
		t.Fatalf("reverse direction broken: got %q", got)
	}
	// a's detector never fired: b is still visible to a.
	if got := a.Alive(); len(got) != 2 {
		t.Fatalf("a.Alive() = %v, want both nodes (one-way cut)", got)
	}
	if got := b.Alive(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("b.Alive() = %v, want [2]", got)
	}
	n.Uncut(1, 2)
	recvEvent(t, b, transport.KindUp, 1)
}

func TestJoinInsidePartitionSeesOwnSideOnly(t *testing.T) {
	n := newNet(t)
	n.Join(1)
	n.Join(2)
	n.Crash(2)
	n.Cut(1, 2)
	n.Cut(2, 1)
	c, err := n.Join(2) // restart inside the partition
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Alive(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("restarted node sees %v, want only itself across the cut", got)
	}
	// No Up event crossed the cut in either direction.
	select {
	case it := <-c.Recv():
		t.Fatalf("unexpected item across cut: %+v", it)
	case <-time.After(50 * time.Millisecond):
	}
}

// drainEvents discards whatever is already queued on an endpoint (the
// Up events from Join priming).
func drainEvents(ep *Endpoint) {
	for {
		select {
		case <-ep.Recv():
		case <-time.After(20 * time.Millisecond):
			return
		}
	}
}
