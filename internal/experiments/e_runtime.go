package experiments

import (
	"fmt"
	"sync"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/cost"
	"paso/internal/stats"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// e8BusyPoll is the busy-wait baseline's retry period.
const e8BusyPoll = 500 * time.Microsecond

// e8BusyWait is §4.3's busy-wait design, the baseline the blocking wait is
// measured against: re-issue the non-blocking read every e8BusyPoll until
// it matches or the timeout passes.
func e8BusyWait(m *core.Machine, tp tuple.Template, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		_, ok, err := m.Read(tp)
		if err != nil || ok {
			return err
		}
		if !time.Now().Before(deadline) {
			return core.ErrTimeout
		}
		time.Sleep(e8BusyPoll)
	}
}

// E8BlockingRead compares the §4.3 blocking-read designs. A consumer
// blocks on a template while a producer inserts the match after a delay;
// we measure wakeup latency and the bus frames spent waiting. Busy-wait
// burns messages proportional to delay/poll; the marker wait (ReadWait)
// spends a constant registration cost and then sleeps.
func E8BlockingRead() *stats.Table {
	t := stats.NewTable("E8", "blocking read: busy-wait vs markers",
		"strategy", "delay", "trials", "frames/trial", "mean-latency")
	waits := []struct {
		name string
		wait func(m *core.Machine, tp tuple.Template, timeout time.Duration) error
	}{
		{"busy-wait", e8BusyWait},
		{"markers", func(m *core.Machine, tp tuple.Template, timeout time.Duration) error {
			_, err := m.ReadWait(tp, timeout)
			return err
		}},
	}
	for _, w := range waits {
		for _, delay := range []time.Duration{5 * time.Millisecond, 25 * time.Millisecond} {
			const trials = 6
			cfg := core.Config{
				Classifier: class.NewNameArity([]string{"evt"}, 3),
				Lambda:     1,
				Model:      cost.DefaultModel(),
				StoreKind:  storage.KindHash,
			}
			c, err := core.NewCluster(cfg, 4)
			if err != nil {
				t.AddNote("%v", err)
				continue
			}
			// The consumer must sit OUTSIDE the class's write group or its
			// busy-wait polls are free local reads and the comparison is
			// vacuous.
			var consumer, producer *core.Machine
			for _, m := range c.Machines() {
				if !m.IsBasic("evt/2") {
					if consumer == nil {
						consumer = m
					} else if producer == nil {
						producer = m
					}
				}
			}
			if consumer == nil || producer == nil {
				t.AddNote("not enough outsider machines")
				c.Shutdown()
				continue
			}
			var latencies []float64
			baseline := c.BusTotals().Messages
			for i := 0; i < trials; i++ {
				tpl := tuple.NewTemplate(
					tuple.Eq(tuple.String("evt")), tuple.Eq(tuple.Int(int64(i))),
				)
				var wg sync.WaitGroup
				wg.Add(1)
				errs := make(chan error, 1)
				begin := time.Now()
				go func(i int) {
					defer wg.Done()
					if err := w.wait(consumer, tpl, 5*time.Second); err != nil {
						errs <- err
					}
				}(i)
				time.Sleep(delay)
				if _, err := producer.Insert(tuple.Make(tuple.String("evt"), tuple.Int(int64(i)))); err != nil {
					t.AddNote("insert: %v", err)
				}
				wg.Wait()
				select {
				case err := <-errs:
					t.AddNote("trial: %v", err)
				default:
					latencies = append(latencies, float64(time.Since(begin)-delay)/float64(time.Millisecond))
				}
			}
			frames := float64(c.BusTotals().Messages-baseline) / trials
			sum := stats.Summarize(latencies)
			t.AddRow(w.name, fmt.Sprint(delay), stats.D(trials),
				stats.F(frames), fmt.Sprintf("%sms", stats.F(sum.Mean)))
			c.Shutdown()
		}
	}
	t.AddNote("frames/trial includes the producer's insert; busy-wait frames grow with delay, marker frames stay flat")
	return t
}

// E9Recovery measures the §3.1 initialization phase: crash a support
// machine, restart it, and record the state-transfer volume and init time
// as the class size ℓ grows. The paper expects time(g-join) = O(ℓ).
func E9Recovery() *stats.Table {
	t := stats.NewTable("E9", "crash recovery: init phase vs class size",
		"l", "objsize", "transfer-bytes", "init-time", "bytes/obj")
	for _, l := range []int{100, 500, 2000} {
		for _, size := range []int{64, 256} {
			cfg := core.Config{
				Classifier: class.NewNameArity([]string{"obj"}, 4),
				Lambda:     1,
				Model:      cost.DefaultModel(),
				StoreKind:  storage.KindHash,
			}
			c, err := core.NewCluster(cfg, 4)
			if err != nil {
				t.AddNote("%v", err)
				continue
			}
			sup := c.Support("obj/3")
			loader := c.Machine(sup[0])
			for i := 0; i < l; i++ {
				if _, err := loader.Insert(payloadTuple(int64(i), size)); err != nil {
					t.AddNote("%v", err)
					break
				}
			}
			victim := sup[1]
			c.Crash(victim)
			bytesBefore := c.BusTotals().Bytes
			if err := c.Restart(victim); err != nil {
				t.AddNote("restart: %v", err)
				c.Shutdown()
				continue
			}
			m := c.Machine(victim)
			transferred := c.BusTotals().Bytes - bytesBefore
			if got := m.ClassLen("obj/3"); got != l {
				t.AddNote("restarted replica has %d objects, want %d", got, l)
			}
			t.AddRow(stats.D(l), stats.D(size), stats.D(transferred),
				fmt.Sprint(m.InitTime().Round(time.Microsecond)),
				stats.F(float64(transferred)/float64(l)))
			c.Shutdown()
		}
	}
	t.AddNote("transfer-bytes scales linearly in ℓ and object size: time(g-join) = O(ℓ) as §5 assumes")
	return t
}

// E10AdaptiveVsStatic runs the end-to-end workload the adaptive machinery
// exists for: read locality that shifts between machines. Under Static the
// hot reader pays remote reads forever; Basic migrates a replica to it;
// FullReplication wins reads but pays every update everywhere.
func E10AdaptiveVsStatic() *stats.Table {
	t := stats.NewTable("E10", "total work: adaptive vs static vs full replication",
		"workload", "policy", "msg-cost", "work", "remote-reads", "local-reads", "joins")
	type policyCase struct {
		name string
		f    func(class.ID) adaptive.Policy
	}
	cases := []policyCase{
		{"static", nil},
		{"basic(K=8)", func(class.ID) adaptive.Policy {
			p, _ := adaptive.NewBasic(8)
			return p
		}},
		{"full", func(class.ID) adaptive.Policy { return &adaptive.FullReplication{} }},
	}
	type phase struct {
		reader  transport.NodeID
		reads   int
		updates int
	}
	workloads := []struct {
		name   string
		phases []phase
	}{
		{"hot-reader", []phase{{reader: 4, reads: 300, updates: 10}}},
		{"shifting", []phase{
			{reader: 4, reads: 120, updates: 10},
			{reader: 5, reads: 120, updates: 10},
			{reader: 6, reads: 120, updates: 10},
		}},
		{"update-heavy", []phase{{reader: 4, reads: 30, updates: 300}}},
	}
	for _, wl := range workloads {
		for _, pc := range cases {
			cfg := core.Config{
				Classifier:    class.NewNameArity([]string{"obj"}, 4),
				Lambda:        1,
				Model:         cost.DefaultModel(),
				StoreKind:     storage.KindHash,
				UseReadGroups: true,
				NewPolicy:     pc.f,
				Support: map[class.ID][]transport.NodeID{
					"obj/3": {1, 2},
				},
			}
			c, err := newRestrictedCluster(cfg, 6)
			if err != nil {
				t.AddNote("%v", err)
				continue
			}
			writer := c.Machine(1)
			if _, err := writer.Insert(payloadTuple(0, 64)); err != nil {
				t.AddNote("%v", err)
			}
			for _, ph := range wl.phases {
				reader := c.Machine(ph.reader)
				for i := 0; i < ph.reads; i++ {
					if _, _, err := reader.Read(objTemplate(0)); err != nil {
						t.AddNote("read: %v", err)
						break
					}
				}
				for i := 0; i < ph.updates; i++ {
					if _, err := writer.Insert(payloadTuple(int64(i+1), 64)); err != nil {
						t.AddNote("insert: %v", err)
						break
					}
					if _, ok, err := writer.ReadDel(objTemplate(int64(i + 1))); !ok || err != nil {
						t.AddNote("readdel: %v", err)
						break
					}
				}
			}
			var msg, work float64
			var remote, local, joins int
			for _, m := range c.Machines() {
				for kind, st := range m.Stats() {
					msg += st.MsgCost
					work += st.Work
					switch kind {
					case core.OpReadRemote:
						remote += st.Count
					case core.OpReadLocal:
						local += st.Count
					case core.OpJoin:
						joins += st.Count
					}
				}
			}
			t.AddRow(wl.name, pc.name, stats.F(msg), stats.F(work),
				stats.D(remote), stats.D(local), stats.D(joins))
			c.Shutdown()
		}
	}
	t.AddNote("hot-reader/shifting: adaptive ≪ static on msg-cost; update-heavy: adaptive ≈ static, full pays most")
	return t
}

// newRestrictedCluster builds a cluster whose config pins supports only for
// the classes it names; the remaining classes keep the default layout
// (Config.Support must cover every class when provided).
func newRestrictedCluster(cfg core.Config, n int) (*core.Cluster, error) {
	pinned := cfg.Support
	cfg.Support = nil
	full := cfg.SupportMap(core.Ensemble(n))
	for cls, ids := range pinned {
		full[cls] = ids
	}
	cfg.Support = full
	return core.NewCluster(cfg, n)
}
