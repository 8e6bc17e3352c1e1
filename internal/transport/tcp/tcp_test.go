package tcp

import (
	"testing"
	"time"

	"paso/internal/transport"
)

func fastOpts() Options {
	return Options{
		HeartbeatInterval: 5 * time.Millisecond,
		FailTimeout:       30 * time.Millisecond,
	}
}

// mesh starts n endpoints fully connected on loopback.
func mesh(t *testing.T, n int) map[transport.NodeID]*Endpoint {
	t.Helper()
	eps := make(map[transport.NodeID]*Endpoint, n)
	for i := 1; i <= n; i++ {
		ep, err := Listen(transport.NodeID(i), "127.0.0.1:0", fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		eps[transport.NodeID(i)] = ep
	}
	for id, ep := range eps {
		for pid, pep := range eps {
			if pid != id {
				ep.AddPeer(pid, pep.Addr())
			}
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func waitItem(t *testing.T, ep *Endpoint, want func(transport.Item) bool, what string) transport.Item {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case it, ok := <-ep.Recv():
			if !ok {
				t.Fatalf("stream closed waiting for %s", what)
			}
			if want(it) {
				return it
			}
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestUpEventsViaHeartbeat(t *testing.T) {
	eps := mesh(t, 2)
	waitItem(t, eps[1], func(it transport.Item) bool {
		return it.Kind == transport.KindUp && it.From == 2
	}, "up(2)")
	waitItem(t, eps[2], func(it transport.Item) bool {
		return it.Kind == transport.KindUp && it.From == 1
	}, "up(1)")
}

func TestSendReceive(t *testing.T) {
	eps := mesh(t, 2)
	if err := eps[1].Send(2, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	it := waitItem(t, eps[2], func(it transport.Item) bool {
		return it.Kind == transport.KindMsg
	}, "message")
	if it.From != 1 || string(it.Payload) != "over tcp" {
		t.Fatalf("got %+v", it)
	}
}

func TestFIFOOrder(t *testing.T) {
	eps := mesh(t, 2)
	for i := byte(0); i < 100; i++ {
		if err := eps[1].Send(2, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 100; i++ {
		it := waitItem(t, eps[2], func(it transport.Item) bool {
			return it.Kind == transport.KindMsg
		}, "next frame")
		if it.Payload[0] != i {
			t.Fatalf("out of order: got %d want %d", it.Payload[0], i)
		}
	}
}

func TestLoopback(t *testing.T) {
	eps := mesh(t, 1)
	if err := eps[1].Send(1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	it := waitItem(t, eps[1], func(it transport.Item) bool {
		return it.Kind == transport.KindMsg
	}, "loopback")
	if it.From != 1 || string(it.Payload) != "self" {
		t.Fatalf("got %+v", it)
	}
}

func TestUpPrecedesFirstMessage(t *testing.T) {
	eps := mesh(t, 2)
	if err := eps[1].Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sawUp := false
	timeout := time.After(10 * time.Second)
	for {
		select {
		case it := <-eps[2].Recv():
			if it.From != 1 {
				continue
			}
			if it.Kind == transport.KindUp {
				sawUp = true
			}
			if it.Kind == transport.KindMsg {
				if !sawUp {
					t.Fatal("message from 1 arrived before up(1)")
				}
				return
			}
		case <-timeout:
			t.Fatal("message never arrived")
		}
	}
}

func TestDownDetection(t *testing.T) {
	eps := mesh(t, 3)
	waitItem(t, eps[1], func(it transport.Item) bool {
		return it.Kind == transport.KindUp && it.From == 3
	}, "up(3)")
	if err := eps[3].Close(); err != nil {
		t.Fatal(err)
	}
	waitItem(t, eps[1], func(it transport.Item) bool {
		return it.Kind == transport.KindDown && it.From == 3
	}, "down(3)")
	alive := eps[1].Alive()
	for _, id := range alive {
		if id == 3 {
			t.Fatalf("3 still in alive set %v", alive)
		}
	}
}

func TestSendAfterCloseErrors(t *testing.T) {
	ep, err := Listen(9, "127.0.0.1:0", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(9, []byte("x")); err != transport.ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestLargeFrame(t *testing.T) {
	eps := mesh(t, 2)
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := eps[1].Send(2, big); err != nil {
		t.Fatal(err)
	}
	it := waitItem(t, eps[2], func(it transport.Item) bool {
		return it.Kind == transport.KindMsg
	}, "large frame")
	if len(it.Payload) != len(big) || it.Payload[12345] != big[12345] {
		t.Fatal("large frame corrupted")
	}
}

func TestSendToUnknownPeerDrops(t *testing.T) {
	eps := mesh(t, 1)
	if err := eps[1].Send(42, []byte("void")); err != nil {
		t.Fatalf("send to unknown peer: %v", err)
	}
}

// TestSendWhilePeersAdded pins the copy-on-write peer table: senders read it
// without the endpoint mutex while AddPeer publishes new tables, and a peer
// is reachable from the moment AddPeer returns. Meaningful under -race.
func TestSendWhilePeersAdded(t *testing.T) {
	const peers = 8
	hub, err := Listen(1, "127.0.0.1:0", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	spokes := make([]*Endpoint, peers)
	for i := range spokes {
		if spokes[i], err = Listen(transport.NodeID(i+2), "127.0.0.1:0", fastOpts()); err != nil {
			t.Fatal(err)
		}
		defer spokes[i].Close()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // hammers every id, most of them unknown at first
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id := 2; id < peers+2; id++ {
				if err := hub.Send(transport.NodeID(id), []byte("noise")); err != nil {
					t.Errorf("send to %d: %v", id, err)
					return
				}
			}
		}
	}()
	for _, sp := range spokes {
		hub.AddPeer(sp.ID(), sp.Addr())
		if err := hub.Send(sp.ID(), []byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	for _, sp := range spokes {
		waitItem(t, sp, func(it transport.Item) bool {
			return it.Kind == transport.KindMsg && string(it.Payload) == "hello"
		}, "frame sent right after AddPeer")
	}
	close(stop)
	<-done
}
