package main

import (
	"testing"
	"time"

	"paso/internal/storage"
	"paso/internal/tuple"
)

// An open-loop operation's latency runs from when it was due, not from when
// it was issued: while one operation stalls the only worker, the arrivals
// that come due behind it must each be charged the wait.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	const (
		rate  = 1000 // one arrival per millisecond
		stall = 40 * time.Millisecond
	)
	s := &spec{name: "stall", classes: 1, store: storage.KindHash, clients: 1, openRate: rate, mixes: []mix{{0.3, 0.4}}}
	in := generate(s, 1)
	cl := &cluster{basic: [][]bool{{true}, {true}, {true}}}
	r := newRun(in, cl, nil, 0, 120*time.Millisecond)
	calls := 0
	var issuedAt []time.Duration
	r.do = func(mi int, o *op) (tuple.Tuple, bool, error) {
		issuedAt = append(issuedAt, time.Since(r.t0))
		calls++
		if calls == 10 {
			time.Sleep(stall)
		}
		found := tuple.Make(tuple.String("c0"), tuple.Int(1))
		return found.WithID(tuple.ID{Origin: 1, Seq: uint64(calls)}), true, nil
	}
	r.t0 = time.Now()
	if err := r.drive(); err != nil {
		t.Fatal(err)
	}
	samples := r.clients[0].samples
	if len(samples) != 120 {
		t.Fatalf("%d arrivals issued, want 120", len(samples))
	}
	// Arrival 9 stalls from 9 ms or later until 49 ms or later. Arrival 20 was
	// due at 20 ms: whenever it was finally issued, the wait since its due
	// time belongs to its latency. Only lower bounds are asserted, so a busy
	// test machine cannot fail this.
	const k = 20
	due := k * time.Millisecond
	wantMin := 9*time.Millisecond + stall - due - 2*time.Millisecond
	waited := issuedAt[k] - due
	if waited < wantMin {
		t.Fatalf("arrival %d was issued %v after it was due; the stall should have held it %v", k, waited, wantMin)
	}
	if samples[k].lat < waited {
		t.Errorf("arrival %d: latency %v leaves out the %v it waited: measured from issue time, not due time", k, samples[k].lat, waited)
	}
	if samples[k].late < wantMin {
		t.Errorf("arrival %d: lateness %v, want at least %v", k, samples[k].late, wantMin)
	}
	if got := samples[k].end - samples[k].lat; got != due {
		t.Errorf("arrival %d: latency is measured from %v, want its due time %v", k, got, due)
	}
}
