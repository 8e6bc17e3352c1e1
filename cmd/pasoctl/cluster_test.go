package main

import (
	"sync"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
)

// startDebugCluster runs n machines over the TCP transport, each with its
// own obs sink and debug HTTP endpoint (with /placement mounted, as pasod
// does) — the shape pasoctl's scraping verbs meet in a real deployment.
// basics names each machine's basic classes. Everything stops at cleanup.
func startDebugCluster(t *testing.T, cfg core.Config, n int, basics func(transport.NodeID) []class.ID) (
	map[transport.NodeID]*core.Machine, map[transport.NodeID]*obs.Obs, map[transport.NodeID]*obs.DebugServer) {
	t.Helper()
	opts := tcp.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		FailTimeout:       250 * time.Millisecond,
	}
	eps := make(map[transport.NodeID]*tcp.Endpoint, n)
	oss := make(map[transport.NodeID]*obs.Obs, n)
	debugs := make(map[transport.NodeID]*obs.DebugServer, n)
	t.Cleanup(func() {
		for _, d := range debugs {
			d.Close()
		}
		for _, ep := range eps {
			ep.Close()
		}
	})
	for i := transport.NodeID(1); i <= transport.NodeID(n); i++ {
		ep, err := tcp.Listen(i, "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		oss[i] = obs.New(obs.Options{SpanCap: 1024})
		oss[i].Handle("/placement", flight.PlacementHandler(oss[i], nil))
		d, err := oss[i].ServeDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		debugs[i] = d
	}
	for id, ep := range eps {
		for pid, pep := range eps {
			if pid != id {
				ep.AddPeer(pid, pep.Addr())
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		converged := true
		for _, ep := range eps {
			converged = converged && len(ep.Alive()) == n
		}
		if converged {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	machines := make(map[transport.NodeID]*core.Machine, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i transport.NodeID) {
			defer wg.Done()
			c := cfg
			c.Obs = oss[i]
			m, err := core.StartMachine(eps[i], c, basics(i), 1)
			if err != nil {
				t.Errorf("machine %d: %v", i, err)
				return
			}
			mu.Lock()
			machines[i] = m
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	// Registered after the endpoints' cleanup, so it runs first.
	t.Cleanup(func() {
		for _, m := range machines {
			m.Stop()
		}
	})
	if len(machines) != n {
		t.Fatal("not all machines started")
	}
	return machines, oss, debugs
}
