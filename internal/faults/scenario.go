package faults

import (
	"fmt"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/transport"
)

// ProbeClass is the object class every scenario probe writes and reads:
// tuples ("probe", <int>) under the scenario classifier.
const ProbeClass = class.ID("probe/2")

// Classifier returns the classifier every chaos cluster runs with. Its
// class universe (and hence the round-robin support layout) is fixed, so
// Build can compute supports without constructing a cluster.
func Classifier() class.Classifier {
	return class.NewNameArity([]string{"probe"}, 2)
}

// StepOp enumerates the scenario step operations the runner executes.
type StepOp int

const (
	// OpProbe runs a full asserted probe cycle from Node: insert a fresh
	// value, read it (must hit), read&del it (must hit), read it again
	// (must miss). Every leg is recorded for semantics.Check.
	OpProbe StepOp = iota
	// OpAsyncInsert launches an insert from Node in the background and
	// keeps its value; OpAwait joins it. Used inside loss windows, where
	// an insert may stall until a membership event closes the window
	// (FAULTS.md §2.1).
	OpAsyncInsert
	// OpAwait joins all outstanding async inserts (with a timeout — an
	// insert that never completes after the window closed is a liveness
	// violation).
	OpAwait
	// OpInsertKeep inserts a fresh value from Node and keeps it (slot
	// Slot) for a later cross-step read.
	OpInsertKeep
	// OpReadKeep reads kept value Slot from Node, asserting it is found
	// (state-transfer and heal checks).
	OpReadKeep
	// OpReadDelKeep read&dels kept value Slot from Node, asserting it is
	// found.
	OpReadDelKeep
	// OpCrash crashes Node with amnesia (FAULTS.md §2.6).
	OpCrash
	// OpRestart restarts Node with state transfer (FAULTS.md §2.7).
	OpRestart
	// OpFlap makes every other node see Node go down and instantly come
	// back (FAULTS.md §2.8).
	OpFlap
	// OpPartition symmetrically cuts sides A (the minority) and B apart
	// and pauses the invariant checker (FAULTS.md §2.4).
	OpPartition
	// OpHeal undoes OpPartition link by link, A's outbound links first,
	// settles, and resumes the checker.
	OpHeal
	// OpCutOneWay cuts the directed link From→To (FAULTS.md §2.5).
	OpCutOneWay
	// OpHealOneWay heals the directed link From→To.
	OpHealOneWay
	// OpRules installs Rules as the plan's link-noise rule set (after a
	// quiesce pause, so straggler frames from earlier steps are not
	// counted into the window).
	OpRules
	// OpClearRules removes all link-noise rules and quiesces.
	OpClearRules
	// OpSettle polls Cluster.CheckInvariants until it holds (or the
	// settle timeout makes it a violation).
	OpSettle
)

// Step is one scheduled action. Which fields are meaningful depends on Op.
type Step struct {
	Op       StepOp
	Node     transport.NodeID   // probe/crash/restart/flap subject
	From, To transport.NodeID   // one-way cut link
	A, B     []transport.NodeID // partition sides
	Slot     int                // kept-value index for *Keep ops
	Rules    []LinkRule         // OpRules payload
}

// Scenario is a named, fully deterministic fault schedule: every field is
// a pure function of (Name, Seed, N, Lambda, Rounds) — see FAULTS.md §5.
type Scenario struct {
	Name   string
	Seed   uint64
	N      int // machines, IDs 1..N
	Lambda int // crash tolerance λ
	Rounds int

	// Support pins every class's basic support to the cluster's default
	// layout (core.Config.SupportMap); generating it here lets Build choose
	// victims and probers with full knowledge of who replicates what.
	Support map[class.ID][]transport.NodeID

	Steps []Step

	slots int // kept-value slots the steps use
}

// roundScenarios are the hand-written scenarios; "generated" draws each of
// its rounds from them.
var roundScenarios = []string{"flapping-partition", "lossy-link", "rolling-crash", "slow-coordinator"}

// ScenarioNames lists the shipped scenarios, sorted.
func ScenarioNames() []string {
	return []string{"flapping-partition", "generated", "lossy-link", "rolling-crash", "slow-coordinator"}
}

// rng is the schedule generator's deterministic stream (splitmix64 walk).
type rng struct{ state uint64 }

func scenarioRng(seed uint64, name string) *rng {
	h := splitmix64(seed)
	for _, b := range []byte(name) {
		h = splitmix64(h ^ uint64(b))
	}
	return &rng{state: h}
}

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// pick returns a node from 1..n not in the excluded set.
func (r *rng) pick(n int, excluded ...transport.NodeID) transport.NodeID {
	for {
		id := transport.NodeID(r.next()%uint64(n) + 1)
		ok := true
		for _, e := range excluded {
			if id == e {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
}

// Build generates a scenario schedule purely from its parameters.
// Non-positive n, lambda, rounds take the defaults 5, 1, 2. The same
// (name, seed, n, lambda, rounds) always yields the same scenario;
// "generated" concatenates rounds one-round schedules drawn from the
// hand-written scenarios, so any seed is a new fault schedule.
func Build(name string, seed uint64, n, lambda, rounds int) (*Scenario, error) {
	if n <= 0 {
		n = 5
	}
	if lambda <= 0 {
		lambda = 1
	}
	if rounds <= 0 {
		rounds = 2
	}
	if n < 3 {
		return nil, fmt.Errorf("faults: scenarios need n >= 3, got %d", n)
	}
	if lambda >= n {
		return nil, fmt.Errorf("faults: lambda %d must be < n %d", lambda, n)
	}
	sc := &Scenario{
		Name: name, Seed: seed, N: n, Lambda: lambda, Rounds: rounds,
		Support: core.Config{Classifier: Classifier(), Lambda: lambda}.SupportMap(core.Ensemble(n)),
	}
	r := scenarioRng(seed, name)
	keep := func() int { s := sc.slots; sc.slots++; return s }
	switch name {
	case "generated":
		// Each round is a one-round schedule of a hand-written scenario,
		// its name and seed drawn from this scenario's stream, its
		// kept-value slots moved past the earlier rounds'.
		for round := 0; round < rounds; round++ {
			sub, err := Build(roundScenarios[r.next()%uint64(len(roundScenarios))], r.next(), n, lambda, 1)
			if err != nil {
				return nil, err
			}
			for _, st := range sub.Steps {
				switch st.Op {
				case OpAsyncInsert, OpInsertKeep, OpReadKeep, OpReadDelKeep:
					st.Slot += sc.slots
				}
				sc.Steps = append(sc.Steps, st)
			}
			sc.slots += sub.slots
		}
	case "rolling-crash":
		// FAULTS.md §2.6/§2.7: crash a victim, verify the λ−k+1 condition
		// and operability with k=1, restart it, verify restoration — then
		// roll to the next victim.
		for round := 0; round < rounds; round++ {
			victim := r.pick(n)
			sc.Steps = append(sc.Steps,
				Step{Op: OpProbe, Node: r.pick(n, victim)},
				Step{Op: OpCrash, Node: victim},
				Step{Op: OpProbe, Node: r.pick(n, victim)},
				Step{Op: OpRestart, Node: victim},
				Step{Op: OpSettle},
				Step{Op: OpProbe, Node: victim},
			)
		}
	case "flapping-partition":
		// FAULTS.md §2.4/§2.5/§2.8: symmetric minority partition (probe
		// the primary side, verify the minority converges on heal and
		// state transfer carries the window's writes), then an asymmetric
		// cut toward the coordinator, then a detector flap. The minority
		// never contains node 1, keeping the primary side — the one whose
		// writes survive — the probed one (§2.4 primary-side rule).
		for round := 0; round < rounds; round++ {
			m := r.pick(n, 1)
			var rest []transport.NodeID
			for id := transport.NodeID(1); id <= transport.NodeID(n); id++ {
				if id != m {
					rest = append(rest, id)
				}
			}
			kept := keep()
			x := r.pick(n, 1)
			f := r.pick(n, 1)
			sc.Steps = append(sc.Steps,
				Step{Op: OpPartition, A: []transport.NodeID{m}, B: rest},
				Step{Op: OpProbe, Node: r.pick(n, m)},
				Step{Op: OpInsertKeep, Node: r.pick(n, m), Slot: kept},
				Step{Op: OpHeal, A: []transport.NodeID{m}, B: rest},
				Step{Op: OpReadKeep, Node: m, Slot: kept},
				Step{Op: OpProbe, Node: r.pick(n)},
				Step{Op: OpCutOneWay, From: x, To: 1},
				Step{Op: OpProbe, Node: 1},
				Step{Op: OpHealOneWay, From: x, To: 1},
				Step{Op: OpSettle},
				Step{Op: OpProbe, Node: x},
				Step{Op: OpFlap, Node: f},
				Step{Op: OpSettle},
				Step{Op: OpProbe, Node: f},
			)
		}
	case "lossy-link":
		// FAULTS.md §2.1: a sustained loss window around one replica is
		// not survivable alone — inserts launched into it may stall — and
		// is closed by crashing the victim (§3.1 makes the losses
		// indistinguishable from in-flight loss). The awaited inserts
		// must then complete, and after restart the victim must serve
		// them from transferred state. A second rule adds duplication and
		// reorder noise on an unrelated link, which must be transparent
		// (§2.2/§2.3).
		sup := sc.Support[ProbeClass]
		var eligible []transport.NodeID
		for _, id := range sup {
			if id != 1 {
				eligible = append(eligible, id)
			}
		}
		for round := 0; round < rounds; round++ {
			victim := eligible[int(r.next()%uint64(len(eligible)))]
			x := r.pick(n, victim)
			y := r.pick(n, victim, x)
			first := keep()
			keep()
			keep()
			sc.Steps = append(sc.Steps,
				Step{Op: OpRules, Rules: []LinkRule{
					{To: victim, DropP: 0.35},
					{From: victim, DropP: 0.35},
					{From: x, To: y, DupP: 0.3, DelayP: 0.25, DelayFrames: 2},
				}},
				Step{Op: OpAsyncInsert, Node: r.pick(n, victim), Slot: first},
				Step{Op: OpAsyncInsert, Node: r.pick(n, victim), Slot: first + 1},
				Step{Op: OpAsyncInsert, Node: r.pick(n, victim), Slot: first + 2},
				Step{Op: OpCrash, Node: victim},
				Step{Op: OpAwait},
				Step{Op: OpClearRules},
				Step{Op: OpRestart, Node: victim},
				Step{Op: OpSettle},
				Step{Op: OpReadDelKeep, Node: victim, Slot: first},
				Step{Op: OpProbe, Node: victim},
			)
		}
	case "slow-coordinator":
		// FAULTS.md §2.3: half of everything the coordinator sends is
		// held and reordered. Slow but correct: every probe must still
		// pass, with the hub's Tick pump guaranteeing held frames drain.
		for round := 0; round < rounds; round++ {
			sc.Steps = append(sc.Steps,
				Step{Op: OpRules, Rules: []LinkRule{
					{From: 1, DelayP: 0.5, DelayFrames: 3},
				}},
				Step{Op: OpProbe, Node: r.pick(n, 1)},
				Step{Op: OpProbe, Node: r.pick(n, 1)},
				Step{Op: OpClearRules},
				Step{Op: OpProbe, Node: r.pick(n)},
			)
		}
	default:
		return nil, fmt.Errorf("faults: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	return sc, nil
}
