package core

import (
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/simnet"
	"paso/internal/transport/tcp"
)

// forEachFabricAndPlacement builds a 3-machine cluster on the simulated LAN
// and on loopback TCP, under the lowest-live and the rendezvous placement.
func forEachFabricAndPlacement(t *testing.T, cfg Config, f func(t *testing.T, c *Cluster)) {
	fabrics := map[string]func() Fabric{
		"simnet": func() Fabric { return SimFabric(simnet.New(cost.DefaultModel())) },
		// The failure detector's timeout must comfortably exceed worst-case
		// goroutine scheduling delays (the race detector adds plenty), or a
		// blip makes a node transiently believe it is alone.
		"tcp": func() Fabric {
			return tcp.NewLoopback(tcp.Options{HeartbeatInterval: 10 * time.Millisecond, FailTimeout: 250 * time.Millisecond})
		},
	}
	for name, mk := range fabrics {
		for _, placed := range []bool{false, true} {
			name, mk, placed := name, mk, placed
			t.Run(name+map[bool]string{false: "/lowest", true: "/rendezvous"}[placed], func(t *testing.T) {
				if name == "tcp" && testing.Short() {
					t.Skip("tcp fabric waits on real failure detectors; skipped in -short mode")
				}
				cfg := cfg
				cfg.Placement = placed
				c, err := NewClusterOn(mk(), cfg, 3)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(c.Shutdown)
				f(t, c)
			})
		}
	}
}

// waitConverged polls CheckConverged for up to 10s and fails the test with
// the last error if the replicas never converge after the named event.
func waitConverged(t *testing.T, c *Cluster, after string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for err := c.CheckConverged(); err != nil; err = c.CheckConverged() {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged after %s: %v", after, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterCrashRestartOverFabrics runs one crash/restart script through
// the one cluster builder on both fabrics and under both placement
// functions: the primitives work across machines, a crash of machine 1 (the
// sequencer of everything under the lowest-live placement) loses no
// acknowledged write, writes accepted while it is down reach it by state
// transfer on restart, and the replicas converge.
func TestClusterCrashRestartOverFabrics(t *testing.T) {
	forEachFabricAndPlacement(t, testConfig(), func(t *testing.T, c *Cluster) {
		if _, err := c.Machine(3).Insert(taskTuple(7)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		got, ok, err := c.Machine(1).Read(taskTpl())
		if err != nil || !ok || got.Field(1).MustInt() != 7 {
			t.Fatalf("read: %v ok=%v err=%v", got, ok, err)
		}
		taken, ok, err := c.Machine(2).ReadDel(taskTpl())
		if err != nil || !ok || taken.ID() != got.ID() {
			t.Fatalf("read&del: %v ok=%v err=%v", taken, ok, err)
		}
		if _, ok, _ := c.Machine(3).Read(taskTpl()); ok {
			t.Fatal("object still visible after removal")
		}

		if _, err := c.Machine(3).Insert(taskTuple(8)); err != nil {
			t.Fatal(err)
		}
		c.Crash(1)
		if _, ok, err := c.Machine(3).Read(taskTplExact(8)); err != nil || !ok {
			t.Fatalf("acknowledged write lost with machine 1: ok=%v err=%v", ok, err)
		}
		if _, err := c.Machine(2).Insert(taskTuple(9)); err != nil {
			t.Fatalf("insert while machine 1 is down: %v", err)
		}
		if err := c.Restart(1); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, c, "restart")
		for _, v := range []int64{8, 9} {
			if _, ok, err := c.Machine(1).Read(taskTplExact(v)); err != nil || !ok {
				t.Fatalf("restarted machine cannot read %d: ok=%v err=%v", v, ok, err)
			}
		}
		for _, cls := range c.Classes() {
			for _, id := range c.Support(cls) {
				if !c.Machine(id).MemberOf(cls) {
					t.Errorf("machine %d not back in wg(%s)", id, cls)
				}
			}
		}
	})
}
