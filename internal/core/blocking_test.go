package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
)

func blockingConfig() Config {
	return Config{
		Classifier: class.NewNameArity([]string{"task", "result", "item"}, 4),
		Lambda:     1,
		StoreKind:  storage.KindHash,
	}
}

// TestReadWaitAllStrategies runs the one blocking wait the ways a match can
// reach it: a consumer outside wg(C) woken by its marker; the same after
// three polls, so both halves of the wait act (the poll re-reads and
// refreshes the marker before the marker fires); and a member, whose
// attempts are local reads.
func TestReadWaitAllStrategies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		member bool
		delay  time.Duration
	}{
		{"marker", false, 10 * time.Millisecond},
		{"hybrid", false, 3 * blockPoll},
		{"member", true, 10 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, blockingConfig(), 4)
			var consumer, producer *Machine
			for _, m := range c.Machines() {
				switch {
				case consumer == nil && m.IsBasic("task/2") == tc.member:
					consumer = m
				case producer == nil:
					producer = m
				}
			}
			got := make(chan tuple.Tuple, 1)
			errc := make(chan error, 1)
			go func() {
				tu, err := consumer.ReadWait(taskTpl(), 10*time.Second)
				if err != nil {
					errc <- err
					return
				}
				got <- tu
			}()
			time.Sleep(tc.delay)
			if _, err := producer.Insert(taskTuple(5)); err != nil {
				t.Fatal(err)
			}
			select {
			case tu := <-got:
				if tu.Field(1).MustInt() != 5 {
					t.Fatalf("read %v", tu)
				}
			case err := <-errc:
				t.Fatalf("ReadWait: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("never woke")
			}
		})
	}
}

func TestReadWaitImmediateMatch(t *testing.T) {
	c := newTestCluster(t, blockingConfig(), 3)
	m := c.Machine(1)
	if _, err := m.Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	// Already present: returns without waiting.
	start := time.Now()
	if _, err := m.ReadWait(taskTpl(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("immediate match took too long")
	}
}

func TestReadWaitTimeoutError(t *testing.T) {
	c := newTestCluster(t, blockingConfig(), 3)
	m := c.Machine(1)
	// Inside one poll, and across several.
	for _, d := range []time.Duration{20 * time.Millisecond, 3 * blockPoll} {
		if _, err := m.ReadWait(taskTpl(), d); !errors.Is(err, ErrTimeout) {
			t.Fatalf("%v wait: err = %v, want ErrTimeout", d, err)
		}
	}
	// Non-positive timeout = single attempt.
	if _, err := m.ReadWait(taskTpl(), 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("zero timeout err = %v", err)
	}
}

func TestReadDelWaitContention(t *testing.T) {
	// Many blocked takers, fewer tuples: exactly as many winners as
	// tuples, everyone else times out, nothing is taken twice.
	c := newTestCluster(t, blockingConfig(), 4)
	const takers, tuples = 6, 3
	var mu sync.Mutex
	taken := make(map[tuple.ID]bool)
	var wg sync.WaitGroup
	winners := 0
	for i := 0; i < takers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := c.Machine(transport.NodeID(i%4 + 1))
			tu, err := m.ReadDelWait(taskTpl(), 400*time.Millisecond)
			if err != nil {
				return // loser
			}
			mu.Lock()
			defer mu.Unlock()
			if taken[tu.ID()] {
				t.Errorf("tuple %v taken twice", tu.ID())
			}
			taken[tu.ID()] = true
			winners++
		}(i)
	}
	time.Sleep(15 * time.Millisecond)
	for i := 0; i < tuples; i++ {
		if _, err := c.Machine(1).Insert(taskTuple(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if winners != tuples {
		t.Fatalf("winners = %d, want %d", winners, tuples)
	}
}

// TestHybridSurvivesMarkerHolderCrash: the pure-marker liveness hazard the
// paper notes — if every marker-holding replica crashes, the wakeup is
// lost. Both holders crash and restart in turn before the insert, which
// drops every marker (they are per-replica soft state, not part of state
// transfer); the wait's slow poll must still complete the read, long
// before its deadline. The config sets nothing beyond the classifier, as
// pasod's does.
func TestHybridSurvivesMarkerHolderCrash(t *testing.T) {
	c := newTestCluster(t, blockingConfig(), 5)
	sup := c.Support("task/2") // λ+1 = 2 marker-holding machines
	var consumer *Machine
	for _, m := range c.Machines() {
		if !m.IsBasic("task/2") {
			consumer = m
			break
		}
	}
	got := make(chan error, 1)
	go func() {
		_, err := consumer.ReadWait(taskTpl(), 10*time.Second)
		got <- err
	}()
	time.Sleep(15 * time.Millisecond) // markers are placed
	for _, id := range sup {
		c.Crash(id)
		if err := c.Restart(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Machine(sup[0]).Insert(taskTuple(9)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still waiting 5s after the insert: the marker holders' crash lost the wakeup")
	}
}

// TestMarkersBounded: a waiter keeps one marker per replica however long it
// waits and however often it waits again, and its markers expire two polls
// after it stops refreshing them. The core.markers gauge reads the same.
func TestMarkersBounded(t *testing.T) {
	c := newTestCluster(t, blockingConfig(), 4)
	sup := c.Support("task/2")
	var waiter *Machine
	for _, m := range c.Machines() {
		if !m.IsBasic("task/2") {
			waiter = m
			break
		}
	}
	// parked reports, per holder, the markers its server keeps and whether
	// the core.markers gauge reads the same.
	parked := func() (counts []int, gaugeAgrees bool) {
		gaugeAgrees = true
		for _, id := range sup {
			m := c.Machine(id)
			n := 0
			m.srv.mu.Lock()
			for _, ms := range m.srv.markers {
				n += len(ms)
			}
			m.srv.mu.Unlock()
			counts = append(counts, n)
			gaugeAgrees = gaugeAgrees && m.o.Gauge("core.markers").Value() == int64(n)
		}
		return counts, gaugeAgrees
	}
	for i := 0; i < 2; i++ {
		if _, err := waiter.ReadWait(taskTplExact(7), 300*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("wait %d: err = %v, want ErrTimeout", i, err)
		}
		if counts, ok := parked(); !slices.Equal(counts, []int{1, 1}) || !ok {
			t.Fatalf("after wait %d the holders park %v markers (gauge agrees: %v), want one each", i, counts, ok)
		}
	}
	// Expiry is checked when a marker fires or is placed; an insert the
	// marker does not match makes the check.
	time.Sleep(markerTTL)
	if _, err := c.Machine(sup[0]).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "markers expire", func() bool {
		counts, ok := parked()
		return slices.Equal(counts, []int{0, 0}) && ok
	})
}
