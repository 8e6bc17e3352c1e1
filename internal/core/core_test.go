package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/cost"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
)

func testConfig() Config {
	return Config{
		Classifier: class.NewNameArity([]string{"task", "result", "item"}, 4),
		Lambda:     1,
		StoreKind:  storage.KindHash,
	}
}

func newTestCluster(t *testing.T, cfg Config, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func taskTuple(n int64) tuple.Tuple {
	return tuple.Make(tuple.String("task"), tuple.Int(n))
}

func taskTpl() tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String("task")), tuple.Any(tuple.KindInt))
}

func taskTplExact(n int64) tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String("task")), tuple.Eq(tuple.Int(n)))
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(testConfig(), 0); err == nil {
		t.Error("n=0 should fail")
	}
	cfg := testConfig()
	cfg.Lambda = 4
	if _, err := NewCluster(cfg, 3); err == nil {
		t.Error("λ ≥ n should fail")
	}
	cfg = testConfig()
	cfg.Classifier = nil
	if _, err := NewCluster(cfg, 3); err == nil {
		t.Error("nil classifier should fail")
	}
	cfg = testConfig()
	cfg.Support = map[class.ID][]transport.NodeID{"task/2": {1}}
	if _, err := NewCluster(cfg, 3); err == nil {
		t.Error("wrong support size should fail")
	}
}

func TestInsertReadReadDel(t *testing.T) {
	c := newTestCluster(t, testConfig(), 4)
	m := c.Machine(1)
	ins, err := m.Insert(taskTuple(7))
	if err != nil {
		t.Fatal(err)
	}
	if ins.ID().IsZero() {
		t.Fatal("insert did not stamp an ID")
	}
	got, ok, err := m.Read(taskTplExact(7))
	if err != nil || !ok {
		t.Fatalf("read: %v ok=%v", err, ok)
	}
	if got.ID() != ins.ID() {
		t.Fatalf("read returned %v, want %v", got, ins)
	}
	del, ok, err := m.ReadDel(taskTplExact(7))
	if err != nil || !ok {
		t.Fatalf("read&del: %v ok=%v", err, ok)
	}
	if del.ID() != ins.ID() {
		t.Fatalf("read&del returned %v", del)
	}
	if _, ok, _ := m.Read(taskTplExact(7)); ok {
		t.Fatal("object still readable after read&del")
	}
	if _, ok, _ := m.ReadDel(taskTplExact(7)); ok {
		t.Fatal("second read&del succeeded")
	}
}

func TestReadFromEveryMachine(t *testing.T) {
	c := newTestCluster(t, testConfig(), 4)
	if _, err := c.Machine(2).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	for id := transport.NodeID(1); id <= 4; id++ {
		got, ok, err := c.Machine(id).Read(taskTpl())
		if err != nil || !ok {
			t.Fatalf("machine %d read: %v ok=%v", id, err, ok)
		}
		if got.Field(1).MustInt() != 1 {
			t.Fatalf("machine %d read wrong tuple %v", id, got)
		}
	}
}

func TestPersistenceAcrossCreatorExit(t *testing.T) {
	// "Persistent": an object outlives its creating process/machine.
	c := newTestCluster(t, testConfig(), 4)
	if _, err := c.Machine(4).Insert(taskTuple(9)); err != nil {
		t.Fatal(err)
	}
	c.Crash(4)
	got, ok, err := c.Machine(1).Read(taskTplExact(9))
	if err != nil || !ok {
		t.Fatalf("read after creator crash: %v ok=%v", err, ok)
	}
	if got.Field(1).MustInt() != 9 {
		t.Fatalf("wrong tuple %v", got)
	}
}

func TestAtMostOneReadDelPerObject(t *testing.T) {
	// The A2 rule: at most one read&del returns any given object, even
	// under concurrent removers on different machines.
	c := newTestCluster(t, testConfig(), 4)
	const objs = 40
	for i := 0; i < objs; i++ {
		if _, err := c.Machine(1).Insert(taskTuple(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	seen := make(map[tuple.ID]transport.NodeID)
	var dups []string
	var wg sync.WaitGroup
	for id := transport.NodeID(1); id <= 4; id++ {
		wg.Add(1)
		go func(id transport.NodeID) {
			defer wg.Done()
			m := c.Machine(id)
			for {
				got, ok, err := m.ReadDel(taskTpl())
				if err != nil || !ok {
					return
				}
				mu.Lock()
				if prev, dup := seen[got.ID()]; dup {
					dups = append(dups, fmt.Sprintf("%v taken by %d and %d", got.ID(), prev, id))
				}
				seen[got.ID()] = id
				mu.Unlock()
			}
		}(id)
	}
	wg.Wait()
	if len(dups) > 0 {
		t.Fatalf("objects returned twice: %v", dups)
	}
	if len(seen) != objs {
		t.Fatalf("took %d objects, want %d", len(seen), objs)
	}
}

func TestReadDelOldestFirstAcrossMachines(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	for i := int64(0); i < 5; i++ {
		if _, err := c.Machine(1).Insert(taskTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Removing via different machines still yields insertion order (FIFO
	// "oldest" semantics of §4.2).
	for want := int64(0); want < 5; want++ {
		m := c.Machine(transport.NodeID(want%3 + 1))
		got, ok, err := m.ReadDel(taskTpl())
		if err != nil || !ok {
			t.Fatalf("readdel %d: %v ok=%v", want, err, ok)
		}
		if got.Field(1).MustInt() != want {
			t.Fatalf("got %d, want %d (FIFO violated)", got.Field(1).MustInt(), want)
		}
	}
}

func TestReadMiss(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	if _, ok, err := c.Machine(1).Read(taskTpl()); ok || err != nil {
		t.Fatalf("read on empty memory: ok=%v err=%v", ok, err)
	}
	if _, ok, err := c.Machine(1).ReadDel(taskTpl()); ok || err != nil {
		t.Fatalf("read&del on empty memory: ok=%v err=%v", ok, err)
	}
}

func TestLocalReadIsFree(t *testing.T) {
	c := newTestCluster(t, testConfig(), 4)
	// Find the basic-support machine for task/2 and read from it.
	sup := c.Support("task/2")
	m := c.Machine(sup[0])
	if _, err := m.Insert(taskTuple(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Read(taskTpl()); !ok || err != nil {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	st := m.Stats()
	if st[OpReadLocal].Count == 0 {
		t.Fatal("read by a member machine was not served locally")
	}
	if st[OpReadLocal].MsgCost != 0 {
		t.Fatalf("local read msg-cost = %v, want 0 (Figure 1)", st[OpReadLocal].MsgCost)
	}
}

func TestRemoteReadCostsFollowFigure1(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg, 4)
	sup := c.Support("task/2")
	// Pick a machine NOT in the support set.
	var outsider *Machine
	for _, m := range c.Machines() {
		in := false
		for _, s := range sup {
			if m.ID() == s {
				in = true
				break
			}
		}
		if !in {
			outsider = m
			break
		}
	}
	if outsider == nil {
		t.Fatal("no outsider machine")
	}
	if _, err := c.Machine(sup[0]).Insert(taskTuple(5)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := outsider.Read(taskTplExact(5)); !ok || err != nil {
		t.Fatalf("outsider read: ok=%v err=%v", ok, err)
	}
	st := outsider.Stats()
	rr := st[OpReadRemote]
	if rr.Count != 1 {
		t.Fatalf("remote read count = %d", rr.Count)
	}
	if rr.MsgCost <= 0 {
		t.Fatal("remote read must have positive msg-cost")
	}
	// λ=1 ⇒ |wg| = 2 for a static class; the Figure 1 formula with g=2
	// must match what the machine recorded.
	if rr.MsgCost < cfg.Model.RemoteRead(2, 0, 0) {
		t.Fatalf("remote read msg-cost %v below the g=2 startup floor", rr.MsgCost)
	}
}

func TestFaultToleranceConditionHolds(t *testing.T) {
	c := newTestCluster(t, testConfig(), 4)
	if err := c.CheckFaultTolerance(); err != nil {
		t.Fatal(err)
	}
	c.Crash(2) // λ=1: one crash must keep every class served
	if err := c.CheckFaultTolerance(); err != nil {
		t.Fatal(err)
	}
	if c.Down() != 1 {
		t.Fatalf("Down = %d", c.Down())
	}
}

func TestSurvivesLambdaCrashes(t *testing.T) {
	cfg := testConfig()
	cfg.Lambda = 2
	c := newTestCluster(t, cfg, 5)
	m := c.Machine(5)
	for i := int64(0); i < 10; i++ {
		if _, err := m.Insert(taskTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash λ=2 machines from the support set of task/2.
	sup := c.Support("task/2")
	c.Crash(sup[0])
	c.Crash(sup[1])
	// All ten objects must still be readable and removable.
	var reader *Machine
	for _, mm := range c.Machines() {
		reader = mm
		break
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := reader.ReadDel(taskTpl()); !ok || err != nil {
			t.Fatalf("read&del %d after λ crashes: ok=%v err=%v", i, ok, err)
		}
	}
}

func TestRestartRejoinsAndRecovers(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	sup := c.Support("task/2")
	if _, err := c.Machine(1).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	c.Crash(sup[0])
	if _, err := c.Machine(otherID(sup[0], 3)).Insert(taskTuple(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(sup[0]); err != nil {
		t.Fatal(err)
	}
	m := c.Machine(sup[0])
	if m.InitTime() <= 0 {
		t.Error("restart should record an init phase")
	}
	// The restarted machine must hold both objects (state transfer).
	if !m.MemberOf("task/2") {
		t.Fatal("restarted machine did not rejoin its write group")
	}
	if l := m.ClassLen("task/2"); l != 2 {
		t.Fatalf("restarted replica has %d objects, want 2", l)
	}
	// And FIFO order is preserved across the transfer.
	got, ok, err := m.ReadDel(taskTpl())
	if err != nil || !ok || got.Field(1).MustInt() != 1 {
		t.Fatalf("post-restart read&del = %v ok=%v err=%v, want task 1", got, ok, err)
	}
}

func otherID(not transport.NodeID, n int) transport.NodeID {
	for id := transport.NodeID(1); id <= transport.NodeID(n); id++ {
		if id != not {
			return id
		}
	}
	return 1
}

func TestCrashedMachineOpsError(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	m := c.Machine(3)
	c.Crash(3)
	if _, err := m.Insert(taskTuple(1)); err != ErrMachineDown {
		t.Fatalf("Insert on crashed machine: %v", err)
	}
	if _, _, err := m.Read(taskTpl()); err != ErrMachineDown {
		t.Fatalf("Read on crashed machine: %v", err)
	}
	if _, _, err := m.ReadDel(taskTpl()); err != ErrMachineDown {
		t.Fatalf("ReadDel on crashed machine: %v", err)
	}
}

func TestAllSupportCrashedGivesNoReplicas(t *testing.T) {
	// Crashing MORE than λ support machines violates the FT condition;
	// operations must fail loudly, not hang or invent data.
	c := newTestCluster(t, testConfig(), 4)
	sup := c.Support("task/2") // λ+1 = 2 machines
	c.Crash(sup[0])
	c.Crash(sup[1])
	var m *Machine
	for _, mm := range c.Machines() {
		m = mm
		break
	}
	if _, err := m.Insert(taskTuple(1)); err != ErrNoReplicas {
		t.Fatalf("insert with dead support: %v, want ErrNoReplicas", err)
	}
	if err := c.CheckFaultTolerance(); err == nil {
		t.Fatal("FT check should fail with support wiped out")
	}
}

func TestAdaptiveJoinOnReadLocality(t *testing.T) {
	cfg := testConfig()
	cfg.NewPolicy = func(class.ID) adaptive.Policy {
		p, _ := adaptive.NewBasic(4)
		return p
	}
	c := newTestCluster(t, cfg, 4)
	sup := c.Support("task/2")
	var outsider *Machine
	for _, m := range c.Machines() {
		if !m.IsBasic("task/2") {
			outsider = m
			break
		}
	}
	if _, err := c.Machine(sup[0]).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	// Repeated reads from the outsider must push its counter to K and
	// trigger a join.
	deadline := time.Now().Add(10 * time.Second)
	for !outsider.MemberOf("task/2") {
		if time.Now().After(deadline) {
			t.Fatalf("outsider never joined; counter=%d", outsider.PolicyCounter("task/2"))
		}
		if _, _, err := outsider.Read(taskTpl()); err != nil {
			t.Fatal(err)
		}
	}
	// Once a member, its reads are local and free.
	before := outsider.Stats()[OpReadLocal].Count
	if _, ok, _ := outsider.Read(taskTpl()); !ok {
		t.Fatal("member read failed")
	}
	if outsider.Stats()[OpReadLocal].Count != before+1 {
		t.Fatal("post-join read was not local")
	}
}

func TestAdaptiveLeaveOnUpdatePressure(t *testing.T) {
	cfg := testConfig()
	cfg.NewPolicy = func(class.ID) adaptive.Policy {
		p, _ := adaptive.NewBasic(3)
		return p
	}
	c := newTestCluster(t, cfg, 4)
	var outsider, basic *Machine
	for _, m := range c.Machines() {
		if m.IsBasic("task/2") && basic == nil {
			basic = m
		}
		if !m.IsBasic("task/2") && outsider == nil {
			outsider = m
		}
	}
	if _, err := basic.Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	// Drive the outsider in.
	deadline := time.Now().Add(10 * time.Second)
	for !outsider.MemberOf("task/2") && time.Now().Before(deadline) {
		if _, _, err := outsider.Read(taskTpl()); err != nil {
			t.Fatal(err)
		}
	}
	if !outsider.MemberOf("task/2") {
		t.Fatal("never joined")
	}
	// Update pressure from the basic machine must push it out again.
	deadline = time.Now().Add(10 * time.Second)
	for outsider.MemberOf("task/2") {
		if time.Now().After(deadline) {
			t.Fatalf("outsider never left; counter=%d", outsider.PolicyCounter("task/2"))
		}
		if _, err := basic.Insert(taskTuple(99)); err != nil {
			t.Fatal(err)
		}
	}
	// Basic machines never leave.
	if !basic.MemberOf("task/2") {
		t.Fatal("basic support machine left its write group")
	}
}

func TestReadGroupsLimitReadFanout(t *testing.T) {
	cfg := testConfig()
	cfg.Lambda = 1
	cfg.UseReadGroups = true
	cfg.NewPolicy = func(class.ID) adaptive.Policy {
		// Everyone replicates everything, inflating |wg|.
		return &adaptive.FullReplication{}
	}
	c := newTestCluster(t, cfg, 6)
	sup := c.Support("task/2")
	if _, err := c.Machine(sup[0]).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	// Pump every machine's policy so wg grows beyond λ+1.
	for _, m := range c.Machines() {
		if _, _, err := m.Read(taskTpl()); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "wg grows", func() bool {
		count := 0
		for _, m := range c.Machines() {
			if m.MemberOf("task/2") {
				count++
			}
		}
		return count >= 4
	})
	// A fresh outsider... everyone is a member now. Crash one member, and
	// restart it so it is NOT a member (full replication joins on read
	// only). Then check its remote read hits only rg (size λ+1 = 2).
	var victim transport.NodeID
	for _, m := range c.Machines() {
		if !m.IsBasic("task/2") {
			victim = m.ID()
			break
		}
	}
	c.Crash(victim)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	m := c.Machine(victim)
	if _, ok, err := m.Read(taskTplExact(1)); !ok || err != nil {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	rr := m.Stats()[OpReadRemote]
	if rr.Count != 1 {
		t.Fatalf("remote reads = %d", rr.Count)
	}
	// msg-cost must reflect g = λ+1 = 2, NOT the inflated write group.
	max := cost.DefaultModel().RemoteRead(2, 200, 200)
	if rr.MsgCost > max {
		t.Fatalf("read fan-out not limited to rg: cost %v > bound %v", rr.MsgCost, max)
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReadGroupSurvivesMemberCrash(t *testing.T) {
	// §4.3: λ−k < |rg(C)| ≤ λ+1. Crashing one rg member must leave reads
	// flowing through the survivors, and a restart must rejoin the rg.
	cfg := testConfig()
	cfg.UseReadGroups = true
	cfg.Lambda = 2
	c := newTestCluster(t, cfg, 5)
	sup := c.Support("task/2")
	if _, err := c.Machine(sup[0]).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	var outsider *Machine
	for _, m := range c.Machines() {
		if !m.IsBasic("task/2") {
			outsider = m
			break
		}
	}
	if _, ok, err := outsider.Read(taskTpl()); !ok || err != nil {
		t.Fatalf("pre-crash rg read: ok=%v err=%v", ok, err)
	}
	c.Crash(sup[1])
	if _, ok, err := outsider.Read(taskTpl()); !ok || err != nil {
		t.Fatalf("rg read after member crash: ok=%v err=%v", ok, err)
	}
	// The shrunken read group must cost less than λ+1 but more than zero.
	rr := outsider.Stats()[OpReadRemote]
	if rr.Count < 2 {
		t.Fatalf("remote reads = %d", rr.Count)
	}
	if err := c.Restart(sup[1]); err != nil {
		t.Fatal(err)
	}
	if !c.Machine(sup[1]).Node().Member(rgName("task/2")) {
		t.Fatal("restarted support machine did not rejoin the read group")
	}
}

func TestAdaptivePerClassIndependence(t *testing.T) {
	// Policies are per (machine, class): heavy reads of "task" must pull
	// a replica of task/2 to the reader without touching result/2.
	cfg := testConfig()
	cfg.NewPolicy = func(class.ID) adaptive.Policy {
		p, _ := adaptive.NewBasic(4)
		return p
	}
	c := newTestCluster(t, cfg, 5)
	var outsider *Machine
	for _, m := range c.Machines() {
		if !m.IsBasic("task/2") && !m.IsBasic("result/2") {
			outsider = m
			break
		}
	}
	if outsider == nil {
		t.Skip("support layout covered every machine")
	}
	if _, err := c.Machine(1).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Machine(1).Insert(tuple.Make(tuple.String("result"), tuple.Int(1))); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "outsider joins task/2", func() bool {
		if outsider.MemberOf("task/2") {
			return true
		}
		_, _, err := outsider.Read(taskTpl())
		return err == nil && outsider.MemberOf("task/2")
	})
	if outsider.MemberOf("result/2") {
		t.Fatal("reading task pulled a replica of result (classes not independent)")
	}
}
