package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
)

const taskClass class.ID = "task/2"

// TestLocalReadBypassesLoop parks a member's vsync event loop inside a
// blocked Handler.Deliver and reads from that member: the read must come back
// with the tuple, because a local read is the classifier, the store lock and
// the stats and touches no channel the loop serves.
func TestLocalReadBypassesLoop(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	m := c.Machine(c.Support(taskClass)[0])
	if _, err := m.Insert(taskTuple(7)); err != nil {
		t.Fatal(err)
	}

	// The server calls onUpdate from Deliver, on the event loop. Swapping it
	// here is ordered before the loop's next read of it by the Insert below.
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.srv.onUpdate = func(class.ID) {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	inserted := make(chan error, 1)
	go func() {
		_, err := m.Insert(taskTuple(8))
		inserted <- err
	}()
	<-entered // the loop is now parked inside Deliver

	read := make(chan bool, 1)
	go func() {
		_, ok, err := m.Read(taskTplExact(7))
		read <- ok && err == nil && m.MemberOf(taskClass)
	}()
	select {
	case ok := <-read:
		if !ok {
			t.Error("local read on a member missed a live tuple")
		}
	case <-time.After(5 * time.Second):
		t.Error("local read waited for the parked event loop")
	}
	close(release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
}

// TestLocalReadAfterEvictDoesNotResurrect pins the store half of the
// read/leave race: a local read that finds the class evicted says so and
// leaves no empty replica behind.
func TestLocalReadAfterEvictDoesNotResurrect(t *testing.T) {
	s := newServer(Config{StoreKind: storage.KindHash}, obs.Nop(),
		func(class.ID) {}, func(transport.NodeID) {})
	s.ViewChange("wg/jobs", nil) // a first member: activated with nothing to install
	if _, ok, _, held := s.localRead("jobs", taskTpl()); ok || !held {
		t.Fatalf("empty replica: ok=%v held=%v, want a held miss", ok, held)
	}
	s.Evict("wg/jobs")
	if _, _, _, held := s.localRead("jobs", taskTpl()); held {
		t.Fatal("local read of an evicted class claims the replica is held")
	}
	if _, exists := s.classes["jobs"]; exists {
		t.Fatal("local read resurrected the evicted class")
	}
}

// TestLocalReadsAcrossPolicyLeaves interleaves a non-basic machine's local
// reads with the policy leaves that update pressure forces on it. The tuple
// read is never removed, so it is live in wg(C) throughout and every read
// must find it — whether it was served locally, or found the replica evicted
// under it and went remote — and once the machine is out of the group no
// empty replica may be left behind.
func TestLocalReadsAcrossPolicyLeaves(t *testing.T) {
	cfg := testConfig()
	cfg.NewPolicy = func(class.ID) adaptive.Policy {
		p, _ := adaptive.NewBasic(2)
		return p
	}
	c := newTestCluster(t, cfg, 3)
	var outsider, basic *Machine
	for _, m := range c.Machines() {
		if m.IsBasic(taskClass) {
			basic = m
		} else {
			outsider = m
		}
	}
	if _, err := basic.Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var misses, reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, ok, err := outsider.Read(taskTplExact(1))
				if err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
				if !ok {
					misses.Add(1)
				}
			}
		}()
	}
	// Update pressure: every insert/take pair decays the outsider's counter
	// while it is a member, so it keeps leaving and the readers keep pulling
	// it back in.
	leaves := outsider.Obs().Counter("core.policy.leaves")
	deadline := time.Now().Add(20 * time.Second)
	for i := int64(100); leaves.Value() < 20 && time.Now().Before(deadline); i++ {
		if _, err := basic.Insert(taskTuple(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := basic.ReadDel(taskTplExact(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if leaves.Value() < 20 {
		t.Fatalf("only %d policy leaves in 20 s; the race was not exercised", leaves.Value())
	}
	if n := misses.Load(); n != 0 {
		t.Fatalf("%d of %d reads missed a tuple that was never removed", n, reads.Load())
	}

	// With the readers gone, update pressure pushes the outsider out for good.
	// The leave resolves after Evict ran; wait for the move to finish so no
	// join is still in flight. A join the readers started can still land
	// after the leave, so push again until the outsider stays out.
	for i := int64(1 << 20); ; {
		for ; outsider.MemberOf(taskClass); i++ {
			if time.Now().After(deadline) {
				t.Fatal("outsider never left")
			}
			if _, err := basic.Insert(taskTuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		for outsider.moveInFlight(taskClass) {
			time.Sleep(time.Millisecond)
		}
		if !outsider.MemberOf(taskClass) {
			break
		}
	}
	outsider.srv.mu.Lock()
	_, exists := outsider.srv.classes[taskClass]
	outsider.srv.mu.Unlock()
	if exists {
		t.Fatal("a non-member holds class state: a local read resurrected the evicted replica")
	}
}

func (m *Machine) moveInFlight(cls class.ID) bool {
	m.polMu.Lock()
	defer m.polMu.Unlock()
	return m.moving[cls]
}

// oneClass is a classifier that costs nothing: one class, one preallocated
// search list. The fixture uses it so that what is measured and pinned is
// the core read path, not NameArity building class names.
type oneClass struct{ list []class.ID }

func (c oneClass) ClassOf(tuple.Tuple) class.ID         { return c.list[0] }
func (c oneClass) SearchList(tuple.Template) []class.ID { return c.list }
func (c oneClass) Classes() []class.ID                  { return c.list }

// localReadFixture is a basic-support machine of a small cluster holding a
// few tuples of its one class in a list store (whose scan allocates nothing),
// for measuring the member-replica read path on its own.
func localReadFixture(tb testing.TB) (*Machine, tuple.Template) {
	tb.Helper()
	cfg := Config{Classifier: oneClass{list: []class.ID{"c"}}, Lambda: 1, StoreKind: storage.KindList}
	c, err := NewCluster(cfg, 2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Shutdown)
	m := c.Machine(c.Support("c")[0])
	for i := int64(0); i < 4; i++ {
		if _, err := m.Insert(taskTuple(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return m, taskTpl()
}

// BenchmarkLocalRead measures Machine.Read on a member replica: the
// zero-message row of Figure 1.
func BenchmarkLocalRead(b *testing.B) {
	m, tp := localReadFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := m.Read(tp); !ok || err != nil {
			b.Fatalf("read: ok=%v err=%v", ok, err)
		}
	}
}

// TestLocalReadZeroAlloc pins the local read's allocation count: the group
// name is interned and the membership test is a published view, so nothing
// on the path allocates.
func TestLocalReadZeroAlloc(t *testing.T) {
	m, tp := localReadFixture(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok, err := m.Read(tp); !ok || err != nil {
			t.Fatalf("read: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Machine.Read on a member: %.2f allocs/op, want 0", allocs)
	}
}
