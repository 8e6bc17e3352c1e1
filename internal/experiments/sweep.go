package experiments

import (
	"fmt"
	"time"

	"paso/internal/core"
	"paso/internal/load"
	"paso/internal/obs"
	"paso/internal/stats"
)

// SweepConfig drives a rate-ladder saturation sweep: an open-loop,
// coordinated-omission-safe load generator (internal/load) climbs a
// ladder of offered rates against a PASO cluster and records the
// latency-vs-offered-load curve plus a per-stage latency attribution for
// every rung.
type SweepConfig struct {
	// Machines is the cluster size. Default 3.
	Machines int
	// Workers is the number of issuing goroutines per rung. Default 64 —
	// deliberately generous so the generator, not the worker pool, sets
	// the offered rate (see load.Config.Workers).
	Workers int
	// Rates is the ladder of offered rates in ops/sec, swept in order.
	// Default: a 5-rung geometric ladder 500..8000.
	Rates []float64
	// RungDuration is each rung's scheduled arrival window. Default 2s.
	RungDuration time.Duration
	// Classes selects the multi-class sharded mode (EXPERIMENTS.md, E19):
	// values > 1 run that many independent object classes with placed
	// per-class coordinators and a Zipf-skewed class mix. 0 or 1 keeps the
	// historical single-class workload sequenced by the lowest live machine.
	Classes int
	// Leases enables the leased-read fast path (EXPERIMENTS.md, E21): reads
	// from non-members go point-to-point to one wg member under the view
	// epoch instead of through the ordered gcast. Implies placement. The
	// result carries the leased/fallback/remote read tallies so the >90%
	// steady-view leased-service criterion is checkable from the trajectory.
	Leases bool
	// InsertFrac and ReadFrac set the op mix; the remainder is read&del.
	// Defaults 0.4/0.4.
	InsertFrac, ReadFrac float64
	// Preload seeds the space before the sweep so early reads hit.
	// Default 256.
	Preload int
	// Seed makes the op mix reproducible. Default 1.
	Seed int64
	// Transport selects the cluster fabric: "tcp" (default) stands up a
	// real loopback-TCP cluster, "simnet" an in-process simulated LAN —
	// cheap enough for CI smoke runs, though without the socket-level
	// stages (sendq.wait, socket.write).
	Transport string
	// Obs receives the cluster's metrics; the per-stage histograms
	// sampled for rung attribution live in its registry. Nil uses a
	// private sink (the sweep still gets stage breakdowns from it).
	Obs *obs.Obs
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Machines <= 0 {
		c.Machines = 3
	}
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if len(c.Rates) == 0 {
		c.Rates = load.Ladder(500, 8000, 5)
	}
	if c.RungDuration <= 0 {
		c.RungDuration = 2 * time.Second
	}
	if c.InsertFrac <= 0 {
		c.InsertFrac = 0.4
	}
	if c.ReadFrac <= 0 {
		c.ReadFrac = 0.4
	}
	if c.Preload <= 0 {
		c.Preload = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Transport == "" {
		c.Transport = "tcp"
	}
	if c.Obs == nil {
		c.Obs = obs.Nop()
	}
	return c
}

// SweepResult is one saturation sweep: the embedded load.SweepResult
// carries the curve (rungs, knee, saturating stage); the outer fields
// record what was swept.
type SweepResult struct {
	Machines  int    `json:"machines"`
	Workers   int    `json:"workers"`
	Classes   int    `json:"classes,omitempty"`
	Transport string `json:"transport"`
	// Leases records whether the leased-read fast path was on, and the
	// lease accounting aggregated over every machine after the sweep:
	// reads served leased, reads that fell back to the ordered path, reads
	// that went ordered directly (OpReadRemote), and the summed §3.3
	// msg-cost the leased ones saved (cost.Model.LeasedReadSaving).
	Leases         bool    `json:"leases,omitempty"`
	LeasedReads    int64   `json:"leased_reads,omitempty"`
	LeaseFallbacks int64   `json:"lease_fallbacks,omitempty"`
	RemoteReads    int64   `json:"remote_reads,omitempty"`
	LeaseSavedCost float64 `json:"lease_saved_cost,omitempty"`
	load.SweepResult
}

// RunSweep stands up a cluster on the configured transport and climbs the
// rate ladder. Latencies are measured from intended arrival times (no
// coordinated omission); each rung's per-stage breakdown is the delta of
// the cluster-wide stage histograms across the rung.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	o := cfg.Obs

	cl, err := startCluster(cfg.Transport, cfg.Machines, cfg.Classes, cfg.Leases, o)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer cl.Shutdown()
	machines := cl.Machines()
	wl := newWorkload(cfg.Classes, cfg.Workers, cfg.Seed)
	if err := wl.preload(machines, cfg.Preload); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}

	op := wl.mix(machines, cfg.InsertFrac, cfg.ReadFrac)
	res, err := load.Sweep(load.SweepConfig{
		Rates:        cfg.Rates,
		RungDuration: cfg.RungDuration,
		Workers:      cfg.Workers,
		Stages: func() map[string]obs.HistSnapshot {
			return obs.StageSnapshots(o.Reg())
		},
	}, op)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	out := &SweepResult{
		Machines:    cfg.Machines,
		Workers:     cfg.Workers,
		Classes:     cfg.Classes,
		Transport:   cfg.Transport,
		Leases:      cfg.Leases,
		SweepResult: res,
	}
	for _, m := range machines {
		leased, fallback, saved := m.LeaseStats()
		out.LeasedReads += leased
		out.LeaseFallbacks += fallback
		out.LeaseSavedCost += saved
		if s, ok := m.Stats()[core.OpReadRemote]; ok {
			out.RemoteReads += int64(s.Count)
		}
	}
	return out, nil
}

// Table renders the curve in the experiment-table idiom: one row per
// rung, footnotes for the knee and the last rung's stage attribution.
func (r *SweepResult) Table() *stats.Table {
	tb := stats.NewTable("E18", "latency vs offered load (open-loop, CO-safe)",
		"offered/s", "achieved/s", "ops", "fails", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms")
	for _, rg := range r.Rungs {
		tb.AddRow(stats.F(rg.Offered), stats.F(rg.Achieved),
			stats.D(int(rg.Ops)), stats.D(int(rg.Fails)),
			stats.F(rg.P50Ms), stats.F(rg.P90Ms), stats.F(rg.P99Ms), stats.F(rg.P999Ms))
	}
	classes := r.Classes
	if classes < 1 {
		classes = 1
	}
	tb.AddNote("machines=%d workers=%d classes=%d transport=%s rungs=%d",
		r.Machines, r.Workers, classes, r.Transport, len(r.Rungs))
	if r.Leases {
		attempted := r.LeasedReads + r.LeaseFallbacks
		pct := 0.0
		if attempted > 0 {
			pct = 100 * float64(r.LeasedReads) / float64(attempted)
		}
		tb.AddNote("leases: served=%d fallback=%d (%.1f%% leased) remote=%d saved-cost=%.0f",
			r.LeasedReads, r.LeaseFallbacks, pct, r.RemoteReads, r.LeaseSavedCost)
	}
	if r.KneeRate > 0 {
		tb.AddNote("knee: highest sustained rate %.0f/s", r.KneeRate)
	} else {
		tb.AddNote("knee: no rung sustained (achieved < 95%% of offered everywhere)")
	}
	if r.SaturatingStage != "" {
		tb.AddNote("saturating stage: %s (largest mean-latency growth first→last rung)",
			r.SaturatingStage)
	}
	if n := len(r.Rungs); n > 0 {
		for _, s := range r.Rungs[n-1].Stages {
			tb.AddNote("stage %-13s count=%-8d mean=%.3fms p50=%.3fms p99=%.3fms",
				s.Stage, s.Count, s.MeanMs, s.P50Ms, s.P99Ms)
		}
	}
	return tb
}
