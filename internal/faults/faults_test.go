package faults

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"paso/internal/core"
	"paso/internal/cost"
	"paso/internal/semantics"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// TestKindsMatchFaultsDoc enforces FAULTS.md as the source of truth: the
// §7 kind↔exercise table and Kinds() must list exactly the same fault
// kinds (FAULTS.md: "a fault kind that is not specified here must not be
// implemented").
func TestKindsMatchFaultsDoc(t *testing.T) {
	raw, err := os.ReadFile("../../FAULTS.md")
	if err != nil {
		t.Fatalf("read FAULTS.md: %v", err)
	}
	_, table, found := strings.Cut(string(raw), "## 7.")
	if !found {
		t.Fatalf("FAULTS.md has no section 7 table")
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\|")
	documented := make(map[Kind]bool)
	for _, m := range rowRe.FindAllStringSubmatch(table, -1) {
		documented[Kind(m[1])] = true
	}
	registered := make(map[Kind]bool)
	for _, k := range Kinds() {
		registered[k] = true
	}
	for k := range registered {
		if !documented[k] {
			t.Errorf("kind %q is registered but missing from the FAULTS.md §7 table", k)
		}
	}
	for k := range documented {
		if !registered[k] {
			t.Errorf("kind %q is in the FAULTS.md §7 table but not registered in Kinds()", k)
		}
	}
	if len(documented) == 0 {
		t.Fatalf("parsed no kinds from the FAULTS.md §7 table (format drift?)")
	}
}

// collectMsgs drains KindMsg payloads from an endpoint until the deadline.
func collectMsgs(ep *simnet.Endpoint, wait time.Duration) [][]byte {
	var out [][]byte
	deadline := time.After(wait)
	for {
		select {
		case it, ok := <-ep.Recv():
			if !ok {
				return out
			}
			if it.Kind == transport.KindMsg {
				out = append(out, it.Payload)
			}
		case <-deadline:
			return out
		}
	}
}

// TestPlanDropAndLog: a DropP=1 rule suppresses every matched frame —
// still metered (the bus was occupied) — logs each decision at its
// per-link index, and leaves other links untouched (FAULTS.md §2.1).
func TestPlanDropAndLog(t *testing.T) {
	net := simnet.New(cost.DefaultModel())
	a, err := net.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Join(3)
	if err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(7, nil)
	plan.SetRules(LinkRule{From: 2, To: 3, DropP: 1})
	net.SetInjector(plan)

	before := net.Meter().Snapshot().Messages
	for i := 0; i < 5; i++ {
		if err := a.Send(3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(2, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if got := collectMsgs(b, 300*time.Millisecond); len(got) != 0 {
		t.Fatalf("dropped link delivered %d frames", len(got))
	}
	if got := collectMsgs(a, 300*time.Millisecond); len(got) != 1 {
		t.Fatalf("untouched reverse link delivered %d frames, want 1", len(got))
	}
	if sent := net.Meter().Snapshot().Messages - before; sent != 6 {
		t.Fatalf("metered %d frames, want 6 (drops still occupy the bus)", sent)
	}
	evs := plan.Events()
	if len(evs) != 5 {
		t.Fatalf("logged %d events, want 5: %v", len(evs), evs)
	}
	for i, e := range evs {
		if e.Kind != KindDrop || e.From != 2 || e.To != 3 || e.Index != uint64(i) {
			t.Fatalf("event %d = %+v, want drop 2->3 #%d", i, e, i)
		}
	}
}

// TestPlanDuplicateDelivers: with every frame of every link duplicated,
// the group layer must be fully transparent (FAULTS.md §2.2/§3): no
// double applies — a read&del still consumes exactly once and the removed
// object stays dead.
func TestPlanDuplicateDelivers(t *testing.T) {
	net := simnet.New(cost.DefaultModel())
	cluster, err := core.NewClusterOn(core.SimFabric(net), core.Config{
		Classifier: Classifier(),
		Lambda:     1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	plan := NewPlan(11, nil)
	plan.SetRules(LinkRule{DupP: 1})
	net.SetInjector(plan)

	rec := semantics.NewRecorder()
	m := cluster.Machine(3)
	for v := int64(1); v <= 5; v++ {
		start := rec.Begin()
		tt, err := m.Insert(probeTuple(v))
		rec.EndInsert(3, start, tt, err)
		if err != nil {
			t.Fatalf("insert %d under duplication: %v", v, err)
		}
		start = rec.Begin()
		got, ok, err := m.ReadDel(probeTemplate(v))
		rec.EndReadDel(3, start, got, ok && err == nil)
		if err != nil || !ok {
			t.Fatalf("read&del %d under duplication: ok=%v err=%v", v, ok, err)
		}
		start = rec.Begin()
		got, ok, err = m.Read(probeTemplate(v))
		rec.EndRead(3, start, got, ok && err == nil)
		if err != nil {
			t.Fatalf("re-read %d: %v", v, err)
		}
		if ok {
			t.Fatalf("value %d readable after read&del: a duplicate caused a double apply", v)
		}
	}
	if len(plan.Events()) == 0 {
		t.Fatal("no duplications fired — the rule never matched")
	}
	for _, viol := range semantics.Check(rec.History()) {
		t.Errorf("semantics: %v", viol)
	}
}

// TestOneWayPartitionHeals: cutting x→1 makes the coordinator evict x
// (asymmetric detector hazard, FAULTS.md §2.5); on heal, interrogation/
// restate rejoins x with state transfer, so a value written during the
// window becomes readable from x.
func TestOneWayPartitionHeals(t *testing.T) {
	net := simnet.New(cost.DefaultModel())
	cluster, err := core.NewClusterOn(core.SimFabric(net), core.Config{
		Classifier: Classifier(),
		Lambda:     1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	sup := cluster.Support(ProbeClass)
	var x transport.NodeID
	for _, id := range sup {
		if id != 1 {
			x = id
		}
	}
	if x == 0 {
		t.Fatalf("support %v has no non-coordinator member", sup)
	}
	inWG := func(id transport.NodeID) bool {
		for _, mem := range cluster.Machine(1).Node().Members("wg/" + string(ProbeClass)) {
			if mem == id {
				return true
			}
		}
		return false
	}
	if !inWG(x) {
		t.Fatalf("machine %d not in wg(%s) before the cut", x, ProbeClass)
	}

	net.Cut(x, 1)
	deadline := time.Now().Add(10 * time.Second)
	for inWG(x) {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never evicted %d after one-way cut", x)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Write during the window from the coordinator's side; x (divergent,
	// unaware) must pick it up through restate + state transfer on heal.
	const v = int64(4242)
	if _, err := cluster.Machine(1).Insert(probeTuple(v)); err != nil {
		t.Fatalf("insert during one-way window: %v", err)
	}
	net.Uncut(x, 1)

	deadline = time.Now().Add(15 * time.Second)
	for !inWG(x) {
		if time.Now().After(deadline) {
			t.Fatalf("machine %d never rejoined wg(%s) after heal", x, ProbeClass)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		got, ok, err := cluster.Machine(x).Read(probeTemplate(v))
		if err != nil {
			t.Fatalf("read from healed member: %v", err)
		}
		if ok {
			if got.Field(1).String() == "" {
				t.Fatalf("healed read returned malformed tuple %v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("window write never became readable from healed member %d (state transfer lost it)", x)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cluster.CheckInvariants(); err != nil {
		t.Fatalf("invariants after heal: %v", err)
	}
}

// TestLostInterrogationRetried heals a {m} | rest partition one direction at
// a time: m's outbound links first, so machine 1 sees m come back and
// interrogates it over a link that is still cut. The interrogation is
// retried until answered, so once the reverse links heal m is restated and
// rejoins with state transfer: the cluster converges, and m reads the value
// inserted while it was cut off.
func TestLostInterrogationRetried(t *testing.T) {
	net := simnet.New(cost.DefaultModel())
	cluster, err := core.NewClusterOn(core.SimFabric(net), core.Config{
		Classifier: Classifier(),
		Lambda:     1,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	var m transport.NodeID
	for _, id := range cluster.Support(ProbeClass) {
		if id != 1 {
			m = id
		}
	}
	var rest []transport.NodeID
	for id := transport.NodeID(1); id <= 3; id++ {
		if id != m {
			rest = append(rest, id)
		}
	}
	for _, r := range rest {
		net.Cut(m, r)
		net.Cut(r, m)
	}
	const v = int64(5151)
	if _, err := cluster.Machine(1).Insert(probeTuple(v)); err != nil {
		t.Fatalf("insert on the majority: %v", err)
	}
	for _, r := range rest {
		net.Uncut(m, r)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if live, _ := cluster.Machine(1).Node().LiveView(); slices.Contains(live, m) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("machine 1 never saw %d come back", m)
		}
	}
	for _, r := range rest {
		net.Uncut(r, m)
	}
	for deadline := time.Now().Add(5 * time.Second); cluster.CheckConverged() != nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no convergence after the heal: %v", cluster.CheckConverged())
		}
	}
	if _, ok, err := cluster.Machine(m).Read(probeTemplate(v)); err != nil || !ok {
		t.Fatalf("machine %d misses the value written while it was cut off: ok=%v err=%v", m, ok, err)
	}
}

// TestSeedDeterminism is the FAULTS.md §5 regression: the same scenario
// and seed must replay an identical report and executed fault sequence;
// a different seed must diverge. slow-coordinator is the scenario whose
// executed log is bit-stable (no crash/cut races shift its consulted
// frame indices).
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenarios")
	}
	run := func(seed uint64) (string, []string) {
		sc, err := Build("slow-coordinator", seed, 4, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		res, err := Run(sc, RunOptions{Out: &out})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: unexpected violations: %v", seed, res.Violations)
		}
		lines := make([]string, len(res.Faults))
		for i, e := range res.Faults {
			lines[i] = e.String()
		}
		return out.String(), lines
	}
	out1, faults1 := run(42)
	out2, faults2 := run(42)
	if out1 != out2 {
		t.Errorf("same seed, different reports:\n--- run1\n%s\n--- run2\n%s", out1, out2)
	}
	if !reflect.DeepEqual(faults1, faults2) {
		t.Errorf("same seed, different fault sequences:\nrun1: %v\nrun2: %v", faults1, faults2)
	}
	if len(faults1) == 0 {
		t.Fatal("scenario injected no faults — determinism test is vacuous")
	}
	_, faults3 := run(43)
	if reflect.DeepEqual(faults1, faults3) {
		t.Errorf("different seeds produced identical fault sequences: %v", faults1)
	}
}

// TestDecisionsPure: decision streams are position-addressable pure
// functions — equal for equal seeds, divergent across seeds, and
// independent of any counters or execution.
func TestDecisionsPure(t *testing.T) {
	rules := []LinkRule{{DropP: 0.3, DupP: 0.2, DelayP: 0.2, DelayFrames: 2}}
	a := NewPlan(1, nil).Decisions(rules, 2, 3, 256)
	b := NewPlan(1, nil).Decisions(rules, 2, 3, 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different decision streams")
	}
	c := NewPlan(2, nil).Decisions(rules, 2, 3, 256)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical decision streams")
	}
	d := NewPlan(1, nil).Decisions(rules, 3, 2, 256)
	if reflect.DeepEqual(a, d) {
		t.Fatal("opposite link directions share a decision stream")
	}
}

// TestScenarioBuildPure: schedules are pure functions of their inputs
// (FAULTS.md §5) and every shipped scenario builds.
func TestScenarioBuildPure(t *testing.T) {
	for _, name := range ScenarioNames() {
		a, err := Build(name, 9, 5, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Build(name, 9, 5, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same inputs, different schedules", name)
		}
		if len(a.Steps) == 0 {
			t.Errorf("%s: empty schedule", name)
		}
	}
	if _, err := Build("no-such-scenario", 1, 5, 1, 1); err == nil {
		t.Error("unknown scenario name did not error")
	}
}

// runScenario executes one shipped scenario end to end and fails the test
// on any invariant, liveness, or semantics violation.
func runScenario(t *testing.T, name string, seed uint64) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs full scenarios")
	}
	sc, err := Build(name, seed, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := Run(sc, RunOptions{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("%s seed=%d violations:\n%s\nreport:\n%s",
			name, seed, strings.Join(res.Violations, "\n"), out.String())
	}
	if res.Probes == 0 {
		t.Fatalf("%s ran no probes", name)
	}
}

func TestScenarioRollingCrash(t *testing.T)      { runScenario(t, "rolling-crash", 42) }
func TestScenarioFlappingPartition(t *testing.T) { runScenario(t, "flapping-partition", 7) }
func TestScenarioLossyLink(t *testing.T)         { runScenario(t, "lossy-link", 13) }
func TestScenarioSlowCoordinator(t *testing.T)   { runScenario(t, "slow-coordinator", 3) }

// TestScenarioGenerated runs sixteen generated schedules of five rounds
// over n ∈ {4, 5, 6} and λ ∈ {1, 2}, every second one with leased reads.
// A failure prints the paso-chaos command line that replays it.
func TestScenarioGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full scenarios")
	}
	for i := 0; i < 16; i++ {
		seed, n, lambda, leases := uint64(i+1), 4+i%3, 1+i/3%2, i%2 == 1
		replay := fmt.Sprintf("paso-chaos -scenario generated -seed %d -n %d -lambda %d -rounds 5", seed, n, lambda)
		if leases {
			replay += " -leases"
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Build("generated", seed, n, lambda, 5)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			res, err := Run(sc, RunOptions{Out: &out, Leases: leases})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Errorf("%s:\n%s\nreport:\n%s", replay, strings.Join(res.Violations, "\n"), out.String())
			}
		})
	}
}

// TestFlappingPartitionHealStable is the regression for the post-heal
// settle race: the CLI's default flapping-partition plan (n=5, two rounds,
// seed 7 — the `make chaos` gate) failed most runs at the read-keep that
// follows heal, because settle returned while the healed minority node
// still served reads from its stale replica. Twenty runs must produce
// twenty identical OK reports.
func TestFlappingPartitionHealStable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full scenario 20 times")
	}
	var first string
	for i := 0; i < 20; i++ {
		sc, err := Build("flapping-partition", 7, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		res, err := Run(sc, RunOptions{Out: &out})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("run %d violations:\n%s\nreport:\n%s", i, strings.Join(res.Violations, "\n"), out.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d report differs:\n--- run 0\n%s\n--- run %d\n%s", i, first, i, out.String())
		}
	}
}
