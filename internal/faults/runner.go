package faults

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"paso/internal/core"
	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/semantics"
	"paso/internal/simnet"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// RunOptions tunes a scenario execution.
type RunOptions struct {
	// Out receives the deterministic report: banner, one line per step
	// with its outcome, the semantics/checker summaries, and the verdict.
	// On a passing run this output is bit-identical across executions of
	// the same scenario (FAULTS.md §5). Nil discards.
	Out io.Writer
	// Obs receives harness events: fault-injected, invariant-violation.
	// This is wall-clock execution-order data, NOT part of the
	// deterministic surface. Nil discards.
	Obs *obs.Obs
	// SettleTimeout bounds every settle poll (default 30s); exceeding it
	// is an invariant violation.
	SettleTimeout time.Duration
	// AwaitTimeout bounds OpAwait (default 60s); an async insert still
	// stalled that long after its loss window closed is a liveness
	// violation.
	AwaitTimeout time.Duration
	// Trace turns on cross-machine operation tracing for the scenario's
	// cluster and snapshots every probe leg's assembled trace into
	// Result.ProbeTraces immediately after the leg runs — so a later
	// crash cannot erase it, and spans lost TO a fault show up as
	// explicit gap annotations rather than silently missing. Trace
	// timelines are wall-clock data and are NOT part of the deterministic
	// Out report.
	Trace bool
	// FlightDir arms a flight recorder over the run: every machine shares
	// one Obs (as with Trace), a sampler snapshots the merged registry,
	// the default trigger rules watch it, and when the scenario completes
	// a final bundle is force-captured — so every chaos run leaves at
	// least one postmortem artifact, its ownership timeline folded from
	// the shared event ring. Bundle IDs land in Result.Bundles.
	// Wall-clock data, excluded from the deterministic Out report.
	FlightDir string
	// FlightInterval overrides the flight sampler interval (default 50ms).
	FlightInterval time.Duration
	// Leases enables the leased-read fast path for the scenario's cluster
	// (core.Config.LeasedReads): probe reads from machines outside the
	// probe class's support go point-to-point to one member under the view
	// epoch, falling back to the ordered gcast on any fence or timeout.
	// Every semantics and invariant check runs unchanged — the lease must
	// be invisible to them.
	Leases bool
}

// ProbeTrace is one probe leg's assembled cross-machine trace.
type ProbeTrace struct {
	// Probe is the 1-based probe cycle the leg belongs to.
	Probe int
	// Node is the probing machine.
	Node transport.NodeID
	// Op is the leg's root span name (op.insert, op.read, op.read&del).
	Op string
	// Trace is the assembled, gap-annotated timeline.
	Trace obs.OpTrace
}

// Result is a scenario execution's outcome.
type Result struct {
	Scenario string
	Seed     uint64
	Probes   int    // asserted probe cycles run (including the warmup)
	Checks   uint64 // view-change invariant checks performed
	// Faults is the executed fault log in canonical (from, to, index)
	// order. Bit-stable only for scenarios without crash/cut races (see
	// Plan); excluded from the Out report.
	Faults []FaultEvent
	// Records is the semantics history length checked.
	Records int
	// Violations aggregates step assertions, checker findings, settle
	// timeouts, and semantics.Check results. Empty means the run passed.
	Violations []string
	// ProbeTraces holds every probe leg's assembled trace when
	// RunOptions.Trace was set (wall-clock data, excluded from Out).
	ProbeTraces []ProbeTrace
	// Bundles lists the flight-recorder bundles present in FlightDir after
	// the run (set only when RunOptions.FlightDir was armed; wall-clock
	// data, excluded from Out).
	Bundles []string
}

// OK reports whether the run passed.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// quiescePause is how long the runner waits for in-flight protocol
// stragglers to drain before opening or after closing a rule window, so
// the per-link frame indices a window covers are run-stable (FAULTS.md
// §5). Generous: protocol frames settle in microseconds.
const quiescePause = 150 * time.Millisecond

// asyncOp is one in-flight OpAsyncInsert.
type asyncOp struct {
	node transport.NodeID
	val  int64
	err  error
	done chan struct{}
}

type runner struct {
	sc      *Scenario
	opt     RunOptions
	net     *simnet.Net
	cluster *core.Cluster
	plan    *Plan
	ck      *Checker
	rec     *semantics.Recorder
	o       *obs.Obs

	out         io.Writer
	val         int64
	probes      int
	kept        []int64
	pending     []*asyncOp
	violations  []string
	probeTraces []ProbeTrace

	pumpStop chan struct{}
	pumpDone chan struct{}
}

// Run executes a scenario against a fresh in-process cluster, asserting
// invariants and semantics throughout (FAULTS.md §4). The returned error
// covers setup failures only; injected-fault findings land in
// Result.Violations.
func Run(sc *Scenario, opt RunOptions) (*Result, error) {
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	if opt.SettleTimeout <= 0 {
		opt.SettleTimeout = 30 * time.Second
	}
	if opt.AwaitTimeout <= 0 {
		opt.AwaitTimeout = 60 * time.Second
	}
	o := opt.Obs
	if o == nil {
		// Default rings, not Nop's 64 events: a flight bundle folds its
		// ownership timeline out of this event ring.
		o = obs.New(obs.Options{})
	}
	plan := NewPlan(sc.Seed, o)
	ck := NewChecker(o)
	ccfg := core.Config{
		Classifier:    Classifier(),
		Lambda:        sc.Lambda,
		Support:       sc.Support,
		UseReadGroups: true,
		LeasedReads:   opt.Leases,
		OnViewChange:  ck.OnViewChange,
	}
	if opt.Trace {
		// One shared sink collects every machine's spans — the in-process
		// stand-in for the collector's cross-machine merge. Spans a
		// crashed machine never recorded surface as assembly gaps.
		ccfg.TraceOps = true
		ccfg.Obs = o
	}
	var rec *flight.Recorder
	if opt.FlightDir != "" {
		// The flight plane also wants the cluster-wide merge: one shared
		// registry to sample and one event ring that sees every machine's
		// ownership edges.
		ccfg.Obs = o
		interval := opt.FlightInterval
		if interval <= 0 {
			interval = 50 * time.Millisecond
		}
		sampler := flight.NewSampler(o.Reg(), flight.SamplerOptions{
			Interval: interval, Retention: 5 * time.Minute,
		})
		rec = flight.NewRecorder(flight.RecorderOptions{
			Dir: opt.FlightDir, Obs: o, Sampler: sampler,
			Window: 5 * time.Minute,
		})
		sampler.Start()
		defer sampler.Stop()
	}
	net := simnet.New(cost.DefaultModel())
	cluster, err := core.NewClusterOn(core.SimFabric(net), ccfg, sc.N)
	if err != nil {
		return nil, fmt.Errorf("faults: cluster: %w", err)
	}
	ck.Bind(cluster)
	net.SetInjector(plan)
	r := &runner{
		sc: sc, opt: opt, net: net, cluster: cluster, plan: plan, ck: ck,
		rec: semantics.NewRecorder(), o: o, out: opt.Out,
		pumpStop: make(chan struct{}), pumpDone: make(chan struct{}),
	}
	go r.pump()
	defer func() {
		close(r.pumpStop)
		<-r.pumpDone
		ck.Close()
		cluster.Shutdown()
	}()

	fmt.Fprintf(r.out, "scenario %s seed=%d n=%d lambda=%d rounds=%d\n",
		sc.Name, sc.Seed, sc.N, sc.Lambda, sc.Rounds)
	fmt.Fprintf(r.out, "support %s: %v\n", ProbeClass, sc.Support[ProbeClass])
	if opt.Leases {
		fmt.Fprintf(r.out, "leases: on\n")
	}
	if err := cluster.CheckInvariants(); err != nil {
		r.violate(fmt.Sprintf("baseline: %v", err))
	}
	_, outcome := r.probe(1)
	fmt.Fprintf(r.out, "warmup probe m=1: %s\n", outcome)
	time.Sleep(quiescePause)

	for i, st := range sc.Steps {
		r.exec(i+1, st)
	}

	// Late verdicts: the checker's persistent findings and the global
	// semantics check over every recorded operation interval.
	ckViol := ck.Violations()
	sort.Strings(ckViol)
	if len(ckViol) == 0 {
		fmt.Fprintf(r.out, "checker: ok\n")
	} else {
		for _, v := range ckViol {
			fmt.Fprintf(r.out, "checker: FAIL %s\n", v)
			r.violate(v)
		}
	}
	history := r.rec.History()
	semViol := semantics.Check(history)
	fmt.Fprintf(r.out, "semantics: %d records, %d violations\n", len(history), len(semViol))
	for _, v := range semViol {
		fmt.Fprintf(r.out, "semantics: FAIL %s\n", v.Error())
		r.violate("semantics: " + v.Error())
	}

	res := &Result{
		Scenario: sc.Name, Seed: sc.Seed,
		Probes: r.probes, Checks: ck.Checks(),
		Faults:  plan.Events(),
		Records: len(history), Violations: r.violations,
		ProbeTraces: r.probeTraces,
	}
	if rec != nil {
		// Force a scenario-end capture so even a run where no rule fired
		// leaves a postmortem bundle, then report everything in the dir.
		if _, err := rec.Trigger("scenario-end",
			fmt.Sprintf("scenario %s seed=%d completed", sc.Name, sc.Seed)); err != nil {
			r.violate(fmt.Sprintf("flight: scenario-end capture: %v", err))
		}
		if ms, err := flight.ListBundles(opt.FlightDir); err == nil {
			for _, m := range ms {
				res.Bundles = append(res.Bundles, m.ID)
			}
		}
		res.Violations = r.violations
	}
	sort.Slice(res.Faults, func(i, j int) bool {
		a, b := res.Faults[i], res.Faults[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Index < b.Index
	})
	if res.OK() {
		fmt.Fprintf(r.out, "verdict: OK\n")
	} else {
		fmt.Fprintf(r.out, "verdict: VIOLATIONS (%d)\n", len(res.Violations))
	}
	return res, nil
}

// pump keeps the hub's delay queue draining while traffic is quiet, so a
// held frame that nothing would otherwise follow still delivers (see
// simnet.Net.Tick).
func (r *runner) pump() {
	defer close(r.pumpDone)
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.pumpStop:
			return
		case <-t.C:
			r.net.Tick()
		}
	}
}

func (r *runner) violate(v string) {
	r.violations = append(r.violations, v)
}

func (r *runner) nextVal() int64 {
	r.val++
	return r.val
}

func probeTuple(v int64) tuple.Tuple {
	return tuple.Make(tuple.String("probe"), tuple.Int(v))
}

func probeTemplate(v int64) tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String("probe")), tuple.Eq(tuple.Int(v)))
}

// probe runs one asserted probe cycle from the given machine: insert,
// read (hit), read&del (hit), read (miss), every leg recorded for the
// final semantics check.
func (r *runner) probe(id transport.NodeID) (int64, string) {
	v := r.nextVal()
	r.probes++
	probeStart := time.Now()
	defer r.snapshotProbeTraces(id, probeStart)
	m := r.cluster.Machine(id)
	if m == nil {
		r.violate(fmt.Sprintf("probe m=%d: machine is down (scenario bug)", id))
		return v, "FAIL: machine down"
	}
	start := r.rec.Begin()
	t, err := m.Insert(probeTuple(v))
	r.rec.EndInsert(int(id), start, t, err)
	if err != nil {
		r.violate(fmt.Sprintf("probe m=%d v=%d: insert: %v", id, v, err))
		return v, "FAIL: insert"
	}
	tp := probeTemplate(v)
	start = r.rec.Begin()
	got, ok, err := m.Read(tp)
	r.rec.EndRead(int(id), start, got, ok && err == nil)
	if err != nil || !ok {
		r.violate(fmt.Sprintf("probe m=%d v=%d: read after insert missed (err=%v)", id, v, err))
		return v, "FAIL: read"
	}
	start = r.rec.Begin()
	got, ok, err = m.ReadDel(tp)
	r.rec.EndReadDel(int(id), start, got, ok && err == nil)
	if err != nil || !ok {
		r.violate(fmt.Sprintf("probe m=%d v=%d: read&del missed (err=%v)", id, v, err))
		return v, "FAIL: read&del"
	}
	start = r.rec.Begin()
	got, ok, err = m.Read(tp)
	r.rec.EndRead(int(id), start, got, ok && err == nil)
	if err != nil {
		r.violate(fmt.Sprintf("probe m=%d v=%d: read after read&del errored: %v", id, v, err))
		return v, "FAIL: re-read"
	}
	if ok {
		r.violate(fmt.Sprintf("probe m=%d v=%d: read returned the removed object", id, v))
		return v, "FAIL: dead object returned"
	}
	return v, "ok"
}

// snapshotProbeTraces assembles the traces of every probe leg the machine
// rooted since the probe began and appends them to the result — run
// immediately after each probe so no later fault can erase them.
func (r *runner) snapshotProbeTraces(id transport.NodeID, since time.Time) {
	if !r.opt.Trace {
		return
	}
	spans := r.o.Spans().Snapshot()
	for _, s := range spans {
		if s.Parent == 0 && s.Machine == uint64(id) && !s.Start.Before(since) {
			r.probeTraces = append(r.probeTraces, ProbeTrace{
				Probe: r.probes, Node: id, Op: s.Name,
				Trace: obs.Assemble(s.Trace, spans, cost.DefaultModel()),
			})
		}
	}
}

// keepVal stores v at slot, growing the kept table as needed.
func (r *runner) keepVal(slot int, v int64) {
	for len(r.kept) <= slot {
		r.kept = append(r.kept, 0)
	}
	r.kept[slot] = v
}

func (r *runner) exec(num int, st Step) {
	line := func(format string, args ...any) {
		fmt.Fprintf(r.out, "step %2d: %s\n", num, fmt.Sprintf(format, args...))
	}
	switch st.Op {
	case OpProbe:
		_, outcome := r.probe(st.Node)
		line("probe m=%d: %s", st.Node, outcome)
	case OpAsyncInsert:
		v := r.nextVal()
		r.keepVal(st.Slot, v)
		a := &asyncOp{node: st.Node, val: v, done: make(chan struct{})}
		r.pending = append(r.pending, a)
		m := r.cluster.Machine(st.Node)
		if m == nil {
			a.err = fmt.Errorf("machine %d down", st.Node)
			close(a.done)
		} else {
			go func() {
				defer close(a.done)
				start := r.rec.Begin()
				t, err := m.Insert(probeTuple(a.val))
				r.rec.EndInsert(int(a.node), start, t, err)
				a.err = err
			}()
		}
		line("async-insert m=%d slot=%d: launched", st.Node, st.Slot)
	case OpAwait:
		deadline := time.After(r.opt.AwaitTimeout)
		for _, a := range r.pending {
			select {
			case <-a.done:
				if a.err != nil {
					r.violate(fmt.Sprintf("async insert m=%d v=%d failed: %v", a.node, a.val, a.err))
					line("await m=%d: FAIL %v", a.node, a.err)
				} else {
					line("await m=%d: ok", a.node)
				}
			case <-deadline:
				r.violate(fmt.Sprintf(
					"async insert m=%d v=%d did not complete %s after its loss window closed (liveness)",
					a.node, a.val, r.opt.AwaitTimeout))
				line("await m=%d: STALLED", a.node)
			}
		}
		r.pending = nil
	case OpInsertKeep:
		v := r.nextVal()
		r.keepVal(st.Slot, v)
		outcome := "ok"
		if m := r.cluster.Machine(st.Node); m == nil {
			outcome = "FAIL: machine down"
			r.violate(fmt.Sprintf("insert-keep m=%d: machine down", st.Node))
		} else {
			start := r.rec.Begin()
			t, err := m.Insert(probeTuple(v))
			r.rec.EndInsert(int(st.Node), start, t, err)
			if err != nil {
				outcome = "FAIL: " + err.Error()
				r.violate(fmt.Sprintf("insert-keep m=%d v=%d: %v", st.Node, v, err))
			}
		}
		line("insert-keep m=%d slot=%d: %s", st.Node, st.Slot, outcome)
	case OpReadKeep, OpReadDelKeep:
		v := r.kept[st.Slot]
		verb := "read-keep"
		outcome := "ok"
		m := r.cluster.Machine(st.Node)
		if m == nil {
			outcome = "FAIL: machine down"
			r.violate(fmt.Sprintf("%s m=%d: machine down", verb, st.Node))
		} else if st.Op == OpReadKeep {
			start := r.rec.Begin()
			got, ok, err := m.Read(probeTemplate(v))
			r.rec.EndRead(int(st.Node), start, got, ok && err == nil)
			if err != nil || !ok {
				outcome = fmt.Sprintf("FAIL: kept value missing (err=%v)", err)
				r.violate(fmt.Sprintf("read-keep m=%d slot=%d v=%d: missing (err=%v)", st.Node, st.Slot, v, err))
			}
		} else {
			verb = "readdel-keep"
			start := r.rec.Begin()
			got, ok, err := m.ReadDel(probeTemplate(v))
			r.rec.EndReadDel(int(st.Node), start, got, ok && err == nil)
			if err != nil || !ok {
				outcome = fmt.Sprintf("FAIL: kept value missing (err=%v)", err)
				r.violate(fmt.Sprintf("readdel-keep m=%d slot=%d v=%d: missing (err=%v)", st.Node, st.Slot, v, err))
			}
		}
		line("%s m=%d slot=%d: %s", verb, st.Node, st.Slot, outcome)
	case OpCrash:
		r.cluster.Crash(st.Node)
		r.o.Emit("fault-injected", obs.KV("kind", string(KindCrash)), obs.KV("node", st.Node))
		line("crash m=%d: ok", st.Node)
	case OpRestart:
		outcome := "ok"
		if err := r.cluster.Restart(st.Node); err != nil {
			outcome = "FAIL: " + err.Error()
			r.violate(fmt.Sprintf("restart m=%d: %v", st.Node, err))
		}
		r.o.Emit("fault-injected", obs.KV("kind", string(KindRestart)), obs.KV("node", st.Node))
		line("restart m=%d: %s", st.Node, outcome)
	case OpFlap:
		r.net.Flap(st.Node)
		r.o.Emit("fault-injected", obs.KV("kind", string(KindFlap)), obs.KV("node", st.Node))
		line("flap m=%d: ok", st.Node)
	case OpPartition:
		r.ck.Pause()
		for _, a := range st.A {
			for _, b := range st.B {
				r.net.Cut(a, b)
				r.net.Cut(b, a)
			}
		}
		r.o.Emit("fault-injected", obs.KV("kind", string(KindPartition)),
			obs.KV("sideA", st.A), obs.KV("sideB", st.B))
		line("partition %v | %v: ok", st.A, st.B)
	case OpHeal:
		r.net.Heal(st.A, st.B)
		outcome := r.settle()
		r.ck.Resume()
		line("heal %v | %v: %s", st.A, st.B, outcome)
	case OpCutOneWay:
		r.net.Cut(st.From, st.To)
		r.o.Emit("fault-injected", obs.KV("kind", string(KindOneWay)),
			obs.KV("from", st.From), obs.KV("to", st.To))
		line("cut-oneway %d->%d: ok", st.From, st.To)
	case OpHealOneWay:
		r.net.Uncut(st.From, st.To)
		line("heal-oneway %d->%d: ok", st.From, st.To)
	case OpRules:
		time.Sleep(quiescePause)
		r.plan.SetRules(st.Rules...)
		descs := make([]string, len(st.Rules))
		for i, rule := range st.Rules {
			descs[i] = rule.String()
		}
		line("rules: [%s]", strings.Join(descs, "; "))
	case OpClearRules:
		r.plan.ClearRules()
		time.Sleep(quiescePause)
		line("clear-rules: ok")
	case OpSettle:
		line("settle: %s", r.settle())
	default:
		r.violate(fmt.Sprintf("step %d: unknown op %d", num, st.Op))
		line("unknown op %d", st.Op)
	}
}

// settle polls the full invariant and replica convergence until both hold
// or the settle timeout expires (which is a violation: recovery is supposed
// to converge). Counting λ−k+1 members is not enough: a machine healed out
// of a partition counts itself a wg(C) member of its stale series until its
// detector sees the peers and the coordinator restates it, and a probe that
// lands in that window reads the stale local replica.
func (r *runner) settle() string {
	deadline := time.Now().Add(r.opt.SettleTimeout)
	var err error
	for {
		if err = r.cluster.CheckConverged(); err == nil {
			return "ok"
		}
		if time.Now().After(deadline) {
			r.violate(fmt.Sprintf("settle: invariants did not converge in %s: %v", r.opt.SettleTimeout, err))
			return "FAIL: " + err.Error()
		}
		time.Sleep(5 * time.Millisecond)
	}
}
