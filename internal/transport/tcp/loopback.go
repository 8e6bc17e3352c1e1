package tcp

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"paso/internal/transport"
)

// Loopback is an in-process fabric of real TCP endpoints on 127.0.0.1
// (core.NewClusterOn stands a cluster on it). A restarted ID listens on its
// old address, since peers keep dialing the address they were first given.
type Loopback struct {
	opts  Options
	mu    sync.Mutex
	eps   map[transport.NodeID]*Endpoint
	addrs map[transport.NodeID]string
}

// NewLoopback returns an empty fabric whose endpoints use opts.
func NewLoopback(opts Options) *Loopback {
	return &Loopback{opts: opts, eps: map[transport.NodeID]*Endpoint{}, addrs: map[transport.NodeID]string{}}
}

// Join listens for id, meshes it with every attached endpoint, and returns
// once all failure detectors agree on the new live set. A rejoining ID first
// waits for the survivors to have observed its crash, so they see a Down/Up
// edge rather than a silent state loss.
func (l *Loopback) Join(id transport.NodeID) (transport.Endpoint, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.await(func(p *Endpoint) bool { return !slices.Contains(p.Alive(), id) }); err != nil {
		return nil, fmt.Errorf("tcp: peers never saw %d go down: %w", id, err)
	}
	addr := l.addrs[id]
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ep, err := Listen(id, addr, l.opts)
	if err != nil {
		return nil, err
	}
	for pid, p := range l.eps {
		ep.AddPeer(pid, p.Addr())
		p.AddPeer(id, ep.Addr())
	}
	l.eps[id], l.addrs[id] = ep, ep.Addr()
	if err := l.await(func(p *Endpoint) bool { return len(p.Alive()) == len(l.eps) }); err != nil {
		delete(l.eps, id)
		ep.Close()
		return nil, fmt.Errorf("tcp: failure detectors never converged on %d: %w", id, err)
	}
	return ep, nil
}

// Crash closes id's endpoint; peers notice through their failure detectors.
func (l *Loopback) Crash(id transport.NodeID) {
	l.mu.Lock()
	ep := l.eps[id]
	delete(l.eps, id)
	l.mu.Unlock()
	if ep != nil {
		ep.Close()
	}
}

// await polls until ok holds for every attached endpoint (l.mu held).
func (l *Loopback) await(ok func(*Endpoint) bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range l.eps {
		for !ok(p) {
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out after 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
