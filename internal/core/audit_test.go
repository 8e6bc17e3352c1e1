package core

import (
	"testing"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/opt"
	"paso/internal/transport"
	"paso/internal/workload"
)

// driveAuditor feeds a sequence through a policy and auditor exactly as the
// machine hooks do (policyRead / onUpdate): reads charged before a join
// takes effect, updates observed only while a member, leaves free.
func driveAuditor(p adaptive.Policy, a *ratioAuditor, events []opt.Event) {
	member := false
	for _, raw := range events {
		e := raw.Normalized()
		if ca, ok := p.(adaptive.CostAware); ok {
			ca.ObserveJoinCost(e.JoinCost)
		}
		switch e.Kind {
		case opt.Read:
			d := p.LocalRead(member, e.RgSize)
			trigger := d == adaptive.Join && !member
			a.read(member, e.RgSize, e.JoinCost, trigger)
			if trigger {
				member = true
			}
		case opt.Update:
			if member {
				d := p.Update(true)
				a.update(e.JoinCost)
				if d == adaptive.Leave {
					member = false
				}
			}
		}
	}
}

// TestAuditorBasicWithinTheorem2 replays Theorem 2 workloads through the
// live auditor with the Basic(K) policy and asserts the exported ratio
// stays within 3 + λ/K — the same bound internal/opt proves for its own
// replay driver, now holding on the accounting the gauges are built from.
func TestAuditorBasicWithinTheorem2(t *testing.T) {
	for _, lambda := range []int{1, 2} {
		for _, k := range []int{2, 4, 8} {
			bound := 3 + float64(lambda)/float64(k)
			sequences := [][]opt.Event{
				workload.CounterTorture(30, lambda+1, k, 1),
				workload.RandomMix(workload.MixParams{
					Events: 3000, ReadFrac: 0.5, RgSize: lambda + 1, JoinCost: k, QCost: 1, Seed: 7,
				}),
				workload.RandomMix(workload.MixParams{
					Events: 3000, ReadFrac: 0.9, RgSize: lambda + 1, JoinCost: k, QCost: 1, Seed: 8,
				}),
				workload.Phased(20, k*2, k*2, lambda+1, k, 1),
			}
			for si, events := range sequences {
				p, err := adaptive.NewBasic(k)
				if err != nil {
					t.Fatal(err)
				}
				a := &ratioAuditor{}
				driveAuditor(p, a, events)
				r, _, ok := a.ratio()
				if !ok {
					t.Fatalf("λ=%d K=%d seq %d: no ratio", lambda, k, si)
				}
				if r > bound+1e-9 {
					t.Errorf("λ=%d K=%d seq %d: audited ratio %.3f > bound %.3f (online=%v)",
						lambda, k, si, r, bound, a.online)
				}
			}
		}
	}
}

// TestAuditorDoublingWithinTheorem3 does the same for the cost-aware
// doubling/halving policy under drifting class sizes: ratio ≤ 6 + 2λ/K.
func TestAuditorDoublingWithinTheorem3(t *testing.T) {
	lambda, k0 := 1, 8
	bound := 6 + 2*float64(lambda)/float64(k0)
	for seed := int64(0); seed < 5; seed++ {
		events := workload.DriftingSize(workload.DriftParams{
			Phases: 30, PerPhase: 200, ReadFrac: 0.6,
			RgSize: lambda + 1, BaseK: k0, MaxK: 64, QCost: 1, Seed: seed,
		})
		p, err := adaptive.NewDoublingHalving(k0)
		if err != nil {
			t.Fatal(err)
		}
		a := &ratioAuditor{costAware: true}
		driveAuditor(p, a, events)
		r, _, ok := a.ratio()
		if !ok {
			t.Fatalf("seed %d: no ratio", seed)
		}
		if r > bound+1e-9 {
			t.Errorf("seed %d: audited ratio %.3f > bound %.3f (online=%v)", seed, r, bound, a.online)
		}
	}
}

// TestAuditorWindowReset fills the window past capacity and checks the
// accounting restarts instead of growing without bound.
func TestAuditorWindowReset(t *testing.T) {
	a := &ratioAuditor{}
	p, _ := adaptive.NewBasic(4)
	events := workload.RandomMix(workload.MixParams{
		Events: auditWindow + 100, ReadFrac: 0.7, RgSize: 2, JoinCost: 4, QCost: 1, Seed: 1,
	})
	driveAuditor(p, a, events)
	if a.resets != 1 {
		t.Fatalf("resets = %d, want 1", a.resets)
	}
	if len(a.events) > auditWindow {
		t.Fatalf("window grew to %d", len(a.events))
	}
	if _, _, ok := a.ratio(); !ok {
		t.Fatal("no ratio after reset")
	}
}

// TestAuditLiveCluster drives a real in-process cluster and checks the
// whole surface: a non-basic outsider machine accumulates audit events
// from its reads, AuditRatio honors Theorem 2, and the per-class gauges
// come out of the obs derived-metrics scrape.
func TestAuditLiveCluster(t *testing.T) {
	const k = 4
	o := obs.New(obs.Options{})
	cfg := testConfig()
	cfg.NewPolicy = BasicPolicyFactory(k)
	cfg.Obs = o
	c := newTestCluster(t, cfg, 4)

	cls := class.ID("task/2")
	var outsider transport.NodeID
	for id := transport.NodeID(1); id <= 4; id++ {
		m := c.Machine(id)
		if !m.MemberOf(cls) && !m.IsBasic(cls) {
			outsider = id
			break
		}
	}
	if outsider == 0 {
		t.Fatal("no outsider for task/2")
	}
	m := c.Machine(outsider)

	// A read-heavy phase: enough non-member reads to trip the counter.
	if _, err := c.Machine(1).Insert(taskTuple(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*k; i++ {
		if _, ok, err := m.Read(taskTpl()); err != nil || !ok {
			t.Fatalf("read %d: %v ok=%v", i, err, ok)
		}
	}
	// An update-heavy phase (observed if the policy joined above).
	for i := int64(0); i < 4*k; i++ {
		if _, err := c.Machine(1).Insert(taskTuple(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	// policyRead runs synchronously inside Read, so the audit is already
	// populated by the time the reads return.
	r, ok := m.AuditRatio(cls)
	if !ok {
		t.Fatal("outsider accumulated no audit events")
	}
	lambda := cfg.Lambda
	if bound := 3 + float64(lambda)/float64(k); r > bound+1e-9 {
		t.Fatalf("live ratio %.3f > bound %.3f", r, bound)
	}
	// A basic-support machine must not be audited (the §5.1 game is for
	// M ∉ B(C)).
	for id := transport.NodeID(1); id <= 4; id++ {
		if c.Machine(id).IsBasic(cls) {
			if _, ok := c.Machine(id).AuditRatio(cls); ok {
				t.Fatalf("basic machine %d has an audit", id)
			}
		}
	}
	derived := o.Collect()
	if _, ok := derived["adaptive.ratio."+string(cls)]; !ok {
		t.Fatalf("adaptive.ratio gauge missing from derived metrics: %v", derived)
	}
	if _, ok := derived["adaptive.online."+string(cls)]; !ok {
		t.Fatalf("adaptive.online gauge missing: %v", derived)
	}
}
