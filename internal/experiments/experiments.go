// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	E1–E3  Figure 1: msg-cost/time/work of insert, read (local and
//	       remote), and read&del, measured on the live system against the
//	       closed forms.
//	E4     Theorem 2: the Basic algorithm's competitive ratio vs the exact
//	       offline optimum, swept over λ and K.
//	E5     The q-cost extension (3+2λ/K).
//	E6     Theorem 3: doubling/halving under drifting class size.
//	E7     Theorem 4: support selection vs paging — the reduction, the
//	       adversarial separation, and LRF against baselines.
//	E8     §4.3 blocking reads: busy-wait vs markers.
//	E9     §3.1/§4.2 crash recovery: init-phase cost vs class size.
//	E10    §5 end-to-end: adaptive vs static vs full replication on
//	       locality-shifting workloads.
//
// Each driver is deterministic (seeded) and returns a rendered table; the
// cmd/paso-bench binary prints them all, and the root bench_test.go wraps
// each driver in a testing.B benchmark.
package experiments

import (
	"paso/internal/stats"
)

// Experiment couples an id with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   func() *stats.Table
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Figure 1 row: insert(o) costs", Run: E1InsertCost},
		{ID: "E2", Title: "Figure 1 rows: read(sc) local and remote", Run: E2ReadCost},
		{ID: "E3", Title: "Figure 1 row: read&del(sc) costs", Run: E3ReadDelCost},
		{ID: "E4", Title: "Theorem 2: Basic algorithm competitiveness", Run: E4BasicCompetitive},
		{ID: "E5", Title: "q-cost extension competitiveness", Run: E5QCostCompetitive},
		{ID: "E6", Title: "Theorem 3: doubling/halving competitiveness", Run: E6DoublingHalving},
		{ID: "E7", Title: "Theorem 4: support selection vs paging", Run: E7SupportSelection},
		{ID: "E8", Title: "Blocking reads: busy-wait vs markers", Run: E8BlockingRead},
		{ID: "E9", Title: "Crash recovery and state transfer", Run: E9Recovery},
		{ID: "E10", Title: "Adaptive vs static replication, total work", Run: E10AdaptiveVsStatic},
		{ID: "E11", Title: "Ablation: live support maintenance under churn", Run: E11SupportMaintenance},
		{ID: "E12", Title: "Ablation: counter threshold K", Run: E12KSweep},
		{ID: "E13", Title: "Object classes: monolithic vs range-partitioned", Run: E13ClassPartitioning},
		{ID: "E14", Title: "Response time by policy (the open third measure)", Run: E14ResponseTime},
		{ID: "E15", Title: "Scalability: per-op cost vs ensemble size", Run: E15Scalability},
		{ID: "E16", Title: "System-level competitiveness (sum over machines)", Run: E16SystemCompetitive},
	}
}
