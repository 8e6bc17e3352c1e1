// Command paso-loadgen drives the open-loop load experiments: a PASO
// cluster under a scheduled Insert/Read/ReadDel arrival stream, measuring
// the latency-vs-offered-load curve with per-stage attribution. Each run
// appends one trajectory point to a JSON file (BENCH_paso.json by
// default), so the repo tracks its performance over time — the measured
// counterpart of the §3.3 msg-cost model. The closed-loop throughput and
// tracing-overhead measurements live in the repo benchmark (`go run
// ./benchmark`: workload mixed-sat, metric obs.trace_overhead_ratio); the
// closed-loop points recorded before that are kept in the trajectory file
// as history.
//
// Usage:
//
//	paso-loadgen -sweep 500,1000,2000,4000,8000 -rung 2s -out BENCH_paso.json
//	paso-loadgen -rate 1000 -rung 2s       # one open-loop rung
//	paso-loadgen -classes 8 -sweep 500,1000,2000  # sharded multi-class mode
//	paso-loadgen -compare "PR 6" "PR 7"    # diff two recorded sweep points
//
// -sweep (a comma-separated rate ladder) or -rate (a single rung) runs the
// open-loop generator of internal/load: arrivals are scheduled at fixed
// offsets and latency is measured from the *intended* start, so
// coordinated omission cannot hide saturation. The appended point has kind
// "sweep" and carries the full latency-vs-offered-load curve with
// per-stage attribution. -transport simnet runs the same sweep on the
// in-process simulated LAN (the CI smoke path); -sweep-min-achieved fails
// the run (exit 1) when the first rung's achieved rate falls below the
// given fraction of offered.
//
// With -classes N (> 1) the workload runs N independent object classes
// with sharded coordinator placement (internal/placement): each class gets
// its own vsync groups and placed coordinator, and workers pick classes
// with a mild Zipf skew. This is the E19 multi-class scaling mode; the
// appended point records the class count.
//
// With -leases the cluster runs the leased-read fast path (PROTOCOL.md,
// "Leased reads"): non-member reads go point-to-point to one write-group
// member under the view epoch instead of through the ordered gcast.
// Implies placement. Sweep points record the leased/fallback/remote read
// tallies and the saved §3.3 msg-cost, so a leases=off/on pair under
// -read-heavy is the E21 experiment. -read-heavy presets the op mix to 90%
// reads and 10% inserts (read&del stays the remainder, i.e. none) — the
// workload shape the lease path is built for; explicit -insert-frac /
// -read-frac still win.
//
// With -sample-interval (> 0) a flight time-series sampler (the ring
// behind pasod's /timeseries endpoint) runs over the sweep cluster's
// registry for the whole run. Two otherwise identical sweeps — sampler
// off, then on — recorded under distinct labels measure what the sampling
// plane costs (EXPERIMENTS.md, E20; the budget is ≤ 2%).
//
// With -compare <labelA> <labelB> no cluster runs at all: the newest
// recorded sweep point under each label is loaded from the trajectory
// file (-out, default BENCH_paso.json) and diffed — knee, per-rung p99 on
// the shared rates, saturating stage — with a REGRESSION/OK verdict. The
// command exits 1 when the candidate's knee dropped or a shared rung's
// p99 exceeds -compare-slack times the baseline, so CI gates on it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"paso/internal/experiments"
	"paso/internal/load"
	"paso/internal/obs"
	"paso/internal/obs/flight"
)

// trajectory is the BENCH_paso.json schema: an append-only series of
// measured points, newest last. Point bodies stay raw so an append writes
// every earlier point back byte for byte, whatever kind it is — the file
// also holds closed-loop throughput points (kind "") this command no longer
// produces.
type trajectory struct {
	Schema string            `json:"schema"`
	Points []json.RawMessage `json:"points"`
}

// point is the one kind this command writes and -compare reads back.
type point struct {
	Label string                   `json:"label,omitempty"`
	Date  time.Time                `json:"date"`
	Kind  string                   `json:"kind,omitempty"`
	Sweep *experiments.SweepResult `json:"sweep,omitempty"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paso-loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paso-loadgen", flag.ContinueOnError)
	machines := fs.Int("machines", 3, "cluster size")
	workers := fs.Int("workers", 0, "issuing goroutines per rung (0: the sweep default, 64)")
	classes := fs.Int("classes", 0, "object classes; >1 runs the sharded multi-class mode (E19)")
	insertFrac := fs.Float64("insert-frac", 0.4, "fraction of inserts")
	readFrac := fs.Float64("read-frac", 0.4, "fraction of reads (the rest is read&del)")
	readHeavy := fs.Bool("read-heavy", false, "preset the mix to 90% reads / 10% inserts (E21; explicit -insert-frac/-read-frac win)")
	leases := fs.Bool("leases", false, "enable the leased-read fast path (implies placement)")
	label := fs.String("label", "", "label recorded with the trajectory point")
	out := fs.String("out", "", "append the point to this JSON trajectory file")
	sweep := fs.String("sweep", "", "comma-separated rate ladder (ops/sec); runs the open-loop sweep")
	rate := fs.Float64("rate", 0, "single offered rate (ops/sec); runs one open-loop rung")
	rung := fs.Duration("rung", 2*time.Second, "per-rung arrival window")
	transport := fs.String("transport", "tcp", "cluster fabric for sweeps: tcp or simnet")
	minAchieved := fs.Float64("sweep-min-achieved", 0,
		"fail unless the first rung achieves at least this fraction of its offered rate")
	compare := fs.String("compare", "",
		"compare two recorded sweep points: -compare <labelA> <labelB>; exits 1 on regression")
	slack := fs.Float64("compare-slack", 1.5,
		"compare mode: a rung regresses when its p99 exceeds slack × the baseline p99")
	floor := fs.Float64("compare-p99-floor", 0,
		"compare mode: candidate p99s below this many ms never count as regressions (noise floor)")
	sampleEvery := fs.Duration("sample-interval", 0,
		"arm a flight time-series sampler over the sweep cluster's registry at this interval (0 = off)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *readHeavy {
		if !flagSet(fs, "insert-frac") {
			*insertFrac = 0.1
		}
		if !flagSet(fs, "read-frac") {
			*readFrac = 0.9
		}
	}
	if *compare != "" {
		labelB := fs.Arg(0)
		if labelB == "" {
			return fmt.Errorf("-compare needs two labels: -compare <labelA> <labelB>")
		}
		path := *out
		if path == "" {
			path = "BENCH_paso.json"
		}
		return runCompare(path, *compare, labelB, *slack, *floor)
	}
	if *sweep == "" && *rate <= 0 {
		return fmt.Errorf("nothing to run: give -sweep, -rate or -compare")
	}
	rates, err := parseRates(*sweep, *rate)
	if err != nil {
		return err
	}
	return runSweep(experiments.SweepConfig{
		Machines:     *machines,
		Workers:      *workers,
		Classes:      *classes,
		Leases:       *leases,
		Rates:        rates,
		RungDuration: *rung,
		InsertFrac:   *insertFrac,
		ReadFrac:     *readFrac,
		Transport:    *transport,
	}, *label, *out, *minAchieved, *sampleEvery)
}

// flagSet reports whether the named flag was given explicitly.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// parseRates turns -sweep "500,1000,..." (or a single -rate) into the
// ladder, validating order and positivity.
func parseRates(sweep string, rate float64) ([]float64, error) {
	if sweep == "" {
		return []float64{rate}, nil
	}
	parts := strings.Split(sweep, ",")
	rates := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad sweep rate %q", p)
		}
		rates = append(rates, v)
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			return nil, fmt.Errorf("sweep ladder must strictly increase: %v", rates)
		}
	}
	return rates, nil
}

// runSweep executes the open-loop sweep, prints the curve, appends a
// "sweep" point, and enforces the -sweep-min-achieved floor. A positive
// sampleEvery arms a flight time-series sampler over the cluster's shared
// registry for the whole sweep — the overhead-measurement mode: two
// otherwise identical runs, sampler off then on, recorded side by side in
// the trajectory (EXPERIMENTS.md, E20; the budget is ≤ 2% on the knee).
func runSweep(cfg experiments.SweepConfig, label, out string, minAchieved float64, sampleEvery time.Duration) error {
	if sampleEvery > 0 {
		o := obs.New(obs.Options{TraceCap: 1024, SpanCap: 1024})
		cfg.Obs = o
		sampler := flight.NewSampler(o.Reg(), flight.SamplerOptions{Interval: sampleEvery})
		sampler.Start()
		defer func() {
			sampler.Stop()
			oldest, newest := sampler.Bounds()
			fmt.Printf("sampler: %d frame(s), %d series, %s of history at %s interval\n",
				sampler.Frames(), len(sampler.Names()), newest.Sub(oldest).Round(time.Second), sampleEvery)
		}()
	}
	res, err := experiments.RunSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Table().Render())
	if out != "" {
		if err := appendPoint(out, point{
			Label: label,
			Date:  time.Now().UTC().Truncate(time.Second),
			Kind:  "sweep",
			Sweep: res,
		}); err != nil {
			return err
		}
	}
	if minAchieved > 0 && len(res.Rungs) > 0 {
		first := res.Rungs[0]
		if first.Achieved < minAchieved*first.Offered {
			return fmt.Errorf("first rung achieved %.0f/s < %.0f%% of offered %.0f/s",
				first.Achieved, minAchieved*100, first.Offered)
		}
	}
	return nil
}

// findSweep returns the newest kind=="sweep" point with the given label.
func findSweep(tr *trajectory, label string) (*point, error) {
	for i := len(tr.Points) - 1; i >= 0; i-- {
		var p point
		if err := json.Unmarshal(tr.Points[i], &p); err != nil {
			return nil, fmt.Errorf("point %d: %w", i+1, err)
		}
		if p.Kind == "sweep" && p.Label == label && p.Sweep != nil {
			return &p, nil
		}
	}
	return nil, fmt.Errorf("no sweep point labeled %q", label)
}

// runCompare diffs two recorded sweep points — knee, per-rung p99 on the
// rates both ladders share, and saturating stage — and renders a verdict.
// B is the candidate, A the baseline; the command exits nonzero when B's
// knee dropped below A's or any shared rung's p99 exceeds slack × A's, so
// CI can gate on a recorded seed point. Candidate p99s at or below the
// floor (ms) are exempt from the slack check: sub-millisecond rungs on
// shared runners jitter by an order of magnitude from scheduler noise
// alone, and a relative bound on them would make the gate flaky.
func runCompare(path, labelA, labelB string, slack, floor float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tr trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	a, err := findSweep(&tr, labelA)
	if err != nil {
		return err
	}
	b, err := findSweep(&tr, labelB)
	if err != nil {
		return err
	}
	sa, sb := a.Sweep, b.Sweep
	fmt.Printf("compare %q (baseline, %s) → %q (candidate, %s)\n",
		labelA, a.Date.Format("2006-01-02"), labelB, b.Date.Format("2006-01-02"))
	fmt.Printf("  knee: %.0f/s → %.0f/s", sa.KneeRate, sb.KneeRate)
	if sa.KneeRate > 0 {
		fmt.Printf(" (%.2fx)", sb.KneeRate/sa.KneeRate)
	}
	fmt.Println()
	stA, stB := sa.SaturatingStage, sb.SaturatingStage
	if stA == "" {
		stA = "-"
	}
	if stB == "" {
		stB = "-"
	}
	fmt.Printf("  saturating stage: %s → %s\n", stA, stB)

	byRate := make(map[float64]*load.Rung, len(sa.Rungs))
	for i := range sa.Rungs {
		byRate[sa.Rungs[i].Offered] = &sa.Rungs[i]
	}
	var regressions []string
	shared := 0
	for i := range sb.Rungs {
		rb := &sb.Rungs[i]
		ra, ok := byRate[rb.Offered]
		if !ok {
			continue
		}
		shared++
		marker := ""
		if ra.P99Ms > 0 && rb.P99Ms > slack*ra.P99Ms && rb.P99Ms > floor {
			marker = "  << regression"
			regressions = append(regressions, fmt.Sprintf(
				"p99 at %.0f/s: %.2fms → %.2fms (> %.1fx slack)", rb.Offered, ra.P99Ms, rb.P99Ms, slack))
		}
		fmt.Printf("  p99 @ %6.0f/s: %8.2fms → %8.2fms%s\n", rb.Offered, ra.P99Ms, rb.P99Ms, marker)
	}
	if shared == 0 {
		return fmt.Errorf("the two sweeps share no offered rates; nothing to compare")
	}
	if sb.KneeRate < sa.KneeRate {
		regressions = append(regressions, fmt.Sprintf(
			"knee dropped: %.0f/s → %.0f/s", sa.KneeRate, sb.KneeRate))
	}
	if len(regressions) > 0 {
		fmt.Println("verdict: REGRESSION")
		for _, r := range regressions {
			fmt.Println("  -", r)
		}
		return fmt.Errorf("%d regression(s) vs baseline %q", len(regressions), labelA)
	}
	fmt.Println("verdict: OK")
	return nil
}

// appendPoint loads (or creates) the trajectory file and appends one
// point, leaving every earlier point's bytes as they were.
func appendPoint(path string, p point) error {
	tr := trajectory{Schema: "paso-bench-trajectory/v1"}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &tr); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	body, err := encodeJSON(p)
	if err != nil {
		return err
	}
	tr.Points = append(tr.Points, body)
	file, err := encodeJSON(tr)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		return err
	}
	fmt.Printf("appended point %d to %s\n", len(tr.Points), path)
	return nil
}

// encodeJSON renders v indented with HTML escaping off, so op names like
// "read&del" stay literal in the file instead of the HTML-safe \u0026
// escape.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
