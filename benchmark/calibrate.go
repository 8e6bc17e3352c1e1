package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// resultSet is one workload's metrics from one run, the unit -out writes and
// -agree reads.
type resultSet struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Digest   string             `json:"input_digest"`
	Metrics  map[string]float64 `json:"metrics"`
}

func newResultSet(res *result) resultSet {
	rs := resultSet{Workload: res.workload, Seed: res.seed, Digest: res.digest, Metrics: make(map[string]float64)}
	for n, v := range res.Metrics {
		rs.Metrics[n] = v.Value
	}
	return rs
}

// benchmarkDef mirrors BENCHMARK.json. Field order is the file's key order.
type benchmarkDef struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkDef(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// series groups result sets into one slice of values per (workload, metric),
// in first-seen workload order.
func series(sets []resultSet) (workloads []string, by map[string]map[string][]float64) {
	by = make(map[string]map[string][]float64)
	for _, rs := range sets {
		if by[rs.Workload] == nil {
			by[rs.Workload] = make(map[string][]float64)
			workloads = append(workloads, rs.Workload)
		}
		for n, v := range rs.Metrics {
			by[rs.Workload][n] = append(by[rs.Workload][n], v)
		}
	}
	return workloads, by
}

// calibrationRow is one (workload, metric) line of the calibration record.
type calibrationRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"` // (q3 − q1) / median
}

func calibrationRows(sets []resultSet) []calibrationRow {
	var rows []calibrationRow
	workloads, by := series(sets)
	for _, w := range workloads {
		for _, d := range endToEnd {
			vs := by[w][d.name]
			if len(vs) < 2 {
				continue
			}
			q1, q3 := quartiles(vs)
			rows = append(rows, calibrationRow{w, d.name, vs, median(vs), q1, q3, spread(vs)})
		}
	}
	return rows
}

// printSpreads prints each end-to-end metric's run-to-run spread.
func printSpreads(sets []resultSet) {
	fmt.Printf("\n== run-to-run spread over %d sets\n", len(sets))
	for _, r := range calibrationRows(sets) {
		fmt.Printf("  %-16s %-10s median %12.4f  q1 %12.4f  q3 %12.4f  spread %5.1f%%\n",
			r.Workload, r.Metric, r.Median, r.Q1, r.Q3, 100*r.Spread)
	}
}

// boundFor turns the widest spread seen for a metric into its regression
// bound: three times the spread, so that the noise stays under a third of
// the bound, no less than 5% and, by the builder contract, no more than 25%.
// Rounded up to a whole percent.
func boundFor(worst float64) float64 {
	b := math.Ceil(300*worst-1e-9) / 100
	return math.Min(0.25, math.Max(0.05, b))
}

// writeCalibration records every (workload, metric) median, quartiles and
// spread, and rewrites the bounds in BENCHMARK.json from the widest spread
// of each metric. A metric whose spread needs more than the 25% ceiling is
// reported: it wants a longer window, or demoting to a per-layer diagnostic.
func writeCalibration(sets []resultSet, seconds int, benchJSON, calibOut string) error {
	rows := calibrationRows(sets)
	worst := make(map[string]float64)
	for _, r := range rows {
		worst[r.Metric] = math.Max(worst[r.Metric], r.Spread)
	}
	def, err := readBenchmarkDef(benchJSON)
	if err != nil {
		return err
	}
	type note struct {
		Metric string  `json:"metric"`
		Spread float64 `json:"worst_spread"`
		Bound  float64 `json:"bound"`
		Over   string  `json:"over,omitempty"`
	}
	var notes []note
	for i := range def.EndToEnd {
		m := &def.EndToEnd[i]
		w, ok := worst[m.Name]
		if !ok {
			continue
		}
		n := note{Metric: m.Name, Spread: w}
		// setup_s keeps the ceiling: it is the noisiest and the contract
		// asks for the largest bound on it.
		if m.Name == "setup_s" {
			m.Bound = 0.25
		} else {
			m.Bound = boundFor(w)
		}
		n.Bound = m.Bound
		switch {
		case m.Name != "setup_s" && 3*w > 0.25:
			n.Over = "spread is over a third of the 25% ceiling: lengthen the window or demote the metric"
		case m.Name != "setup_s" && w > 0.10:
			n.Over = "spread is over 10%: a longer window would tighten the bound"
		}
		if n.Over != "" {
			fmt.Printf("  ! %s: %s (worst spread %.1f%%)\n", m.Name, n.Over, 100*w)
		}
		notes = append(notes, n)
	}
	if err := writeJSON(benchJSON, def); err != nil {
		return err
	}
	record := struct {
		Seconds int              `json:"seconds"`
		Sets    int              `json:"sets"`
		Bounds  []note           `json:"bounds"`
		Demoted any              `json:"demoted"`
		Rows    []calibrationRow `json:"rows"`
	}{seconds, len(sets), notes, demoted, rows}
	if err := writeJSON(calibOut, record); err != nil {
		return err
	}
	fmt.Printf("wrote bounds to %s and the calibration record to %s\n", benchJSON, calibOut)
	return nil
}

// agreeFiles checks two result-set files of the same commit against the
// recorded bounds: for every (workload, end-to-end metric) the second
// median may not be worse than the first by more than the metric's bound.
func agreeFiles(a, b, benchJSON string) error {
	def, err := readBenchmarkDef(benchJSON)
	if err != nil {
		return err
	}
	load := func(path string) (map[string]map[string][]float64, []string, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var sets []resultSet
		if err := json.Unmarshal(raw, &sets); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		ws, by := series(sets)
		return by, ws, nil
	}
	first, workloads, err := load(a)
	if err != nil {
		return err
	}
	second, _, err := load(b)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		for _, m := range def.EndToEnd {
			va, vb := first[w][m.Name], second[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma) // positive = second is higher
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("  %-16s %-10s %12.4f -> %12.4f  %+6.1f%% worse, bound %4.0f%%  %s\n",
				w, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics disagree beyond their bounds", bad)
	}
	return nil
}
