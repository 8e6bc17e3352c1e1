// Command benchmark is the repository's benchmark: five named workloads on a
// 3-machine loopback-TCP PASO cluster run inside this process, end-to-end
// metrics from an untraced pass, per-layer metrics from a separate traced
// pass plus isolated replays of each layer, and a correctness check on every
// pass. README.md in this directory defines every metric and workload.
//
//	go run ./benchmark                       every workload, full report
//	go run ./benchmark -workload mixed-sat -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -calibrate -repeat 5  measure noise, write the bounds
//	go run ./benchmark -agree a.json b.json  compare two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times an end-to-end run sets the cluster up;
// setup_s is their median, so one slow listen or join does not move it.
const setupRepeats = 5

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome, in the shape the last line of standard
// output carries.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	workload string
	seed     int64
	digest   string
	p99Ms    float64 // the untraced pass's tail, reported with every mode, gated in none
	notes    []string
	spans    []span
}

// runWorkload makes the passes the trace mode calls for: 0 is the untraced
// end-to-end pass alone, 1 is the per-layer set (an untraced pass to compare
// against, the traced pass, the static-policy bypass where a policy runs,
// and the replays), anything else is both.
func runWorkload(s *spec, seed int64, warm, window time.Duration, trace int) (*result, error) {
	in := generate(s, seed)
	res := &result{Metrics: make(map[string]value), workload: s.name, seed: seed, digest: in.digest}
	absorb := func(p *pass) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.notes = append(res.notes, p.notes...)
		if p.invalid {
			res.Correct = false
		}
	}
	res.Correct = true
	setups := setupRepeats
	if trace == 1 {
		setups = 1
	}
	base, err := measure(in, warm, window, false, setups)
	if err != nil {
		return nil, err
	}
	absorb(base)
	res.p99Ms = base.ws.p99Ms
	if trace != 1 {
		measured := map[string]float64{
			"ops_per_s": base.ws.perSec, "p50_ms": base.ws.p50Ms, "setup_s": median(base.setups),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{measured[d.name], d.unit}
		}
	}
	if trace != 0 {
		layer, traced, err := layerPasses(in, warm, window, base)
		if err != nil {
			return nil, err
		}
		for _, p := range traced {
			absorb(p)
		}
		res.spans = traced[0].spans
		for _, d := range perLayer {
			res.Metrics[d.name] = value{layer[d.name], d.unit}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// layerPasses makes the traced pass and everything that hangs off it, and
// returns the per-layer metrics with the passes made.
func layerPasses(in *inputs, warm, window time.Duration, base *pass) (map[string]float64, []*pass, error) {
	s := in.spec
	tp, err := measure(in, warm, window, true, 1)
	if err != nil {
		return nil, nil, err
	}
	passes := []*pass{tp}
	layer := tp.layer

	// The tail is an end-to-end figure that could not hold a bound (see
	// demoted); like every end-to-end figure it comes from the untraced pass.
	layer["load.p99_ms"] = base.ws.p99Ms

	// What tracing cost, on the metric the workload is gated on: 1.00 is free.
	if s.openRate > 0 {
		layer["obs.trace_overhead_ratio"] = ratio(tp.ws.p50Ms, base.ws.p50Ms)
	} else {
		layer["obs.trace_overhead_ratio"] = ratio(base.ws.perSec, tp.ws.perSec)
	}

	if s.policyK > 0 {
		// The bypass: the same inputs under a static policy. The paper's
		// msg-cost per operation must be lower with the algorithm on.
		static := *s
		static.policyK = 0
		sin := *in
		sin.spec = &static
		sp, err := measure(&sin, warm, window, false, 1)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, sp)
		layer["core.msg_cost_per_op_static"] = sp.msgCostPerOp
		if tp.msgCostPerOp >= sp.msgCostPerOp {
			tp.invalidate("msg-cost per op %.1f with the policy is not below %.1f without", tp.msgCostPerOp, sp.msgCostPerOp)
		}
		for m, row := range tp.pairs {
			for c, pc := range row {
				if pc != nil && (pc.joins.Load() == 0 || pc.leaves.Load() == 0) {
					tp.invalidate("machine %d never joined and left class c%d (%d joins, %d leaves)",
						m+1, c, pc.joins.Load(), pc.leaves.Load())
				}
			}
		}
	} else {
		layer["core.msg_cost_per_op_static"] = tp.msgCostPerOp
	}

	replayTuple(in, layer)
	replayPlacement(in, layer)
	if err := replayStorage(in, layer); err != nil {
		return nil, nil, err
	}
	// The group layer carries the workload's tuples; the transport carries
	// frames of the mean size the traced pass put on the wire.
	if err := replayVsync(in, int(layer["tuple.encoded_bytes"]), layer); err != nil {
		return nil, nil, err
	}
	if err := replayTCP(int(tp.frameBytes), layer); err != nil {
		return nil, nil, err
	}
	// An ordered operation is client → coordinator → members → coordinator →
	// client, four message delays or two round trips; a leased read is one
	// round trip and a local read none. The floor under the mean latency is
	// the mean operation's round trips at the replayed round-trip time.
	trips := 2*layer["vsync.rounds_per_op"] + tp.leasedPerOp
	layer["tcp.latency_over_floor"] = ratio(tp.ws.meanMs*1e3, trips*layer["tcp.rtt_us_p50"])
	return layer, passes, nil
}

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	traceOut  string
	repeat    int
	out       string
	calibrate bool
	agree     bool
	benchJSON string
	calibOut  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs, the only source of randomness")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each measured window, after a 3 s warm-up")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file (one workload)")
	flag.IntVar(&o.repeat, "repeat", 1, "run this many sets, each with the next seed")
	flag.StringVar(&o.out, "out", "", "write the result sets to this JSON file")
	flag.BoolVar(&o.calibrate, "calibrate", false, "run -repeat (at least 5) end-to-end sets and write the noise bounds")
	flag.BoolVar(&o.agree, "agree", false, "compare two result-set files, given as arguments, against the recorded bounds")
	flag.StringVar(&o.benchJSON, "benchmark-json", "BENCHMARK.json", "the benchmark definition holding the bounds")
	flag.StringVar(&o.calibOut, "calibration-out", "benchmark/calibration.json", "where -calibrate records medians, quartiles and spreads")
	flag.Parse()
	if err := o.execute(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) execute(args []string) error {
	if o.agree {
		if len(args) != 2 {
			return fmt.Errorf("-agree takes two result-set files")
		}
		return agreeFiles(args[0], args[1], o.benchJSON)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	todo := specs
	if o.workload != "" {
		s := specByName(o.workload)
		if s == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []*spec{s}
	}
	if o.traceOut != "" && (len(todo) != 1 || o.trace == 0) {
		return fmt.Errorf("-trace-out needs one -workload and a traced pass")
	}
	if o.calibrate {
		o.trace = 0
		o.repeat = max(o.repeat, 5)
	}
	fmt.Printf("paso benchmark: %d machines in one process over loopback TCP, no injected message delay "+
		"(latencies are processor time plus loopback), GOMAXPROCS=%d, %d s windows after a %v warm-up\n",
		machines, runtime.GOMAXPROCS(0), o.seconds, warmUp)

	var sets []resultSet
	ok := true
	var last *result
	for i := 0; i < o.repeat; i++ {
		for _, s := range todo {
			res, err := runWorkload(s, o.seed+int64(i), warmUp, time.Duration(o.seconds)*time.Second, o.trace)
			if err != nil {
				return err
			}
			printResult(res)
			ok = ok && res.Correct
			sets = append(sets, newResultSet(res))
			last = res
		}
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, last.spans); err != nil {
			return err
		}
		loaded, err := loadSpans(o.traceOut)
		if err == nil {
			err = checkRoots(loaded)
		}
		if err != nil {
			return fmt.Errorf("trace file does not load back: %w", err)
		}
		fmt.Printf("wrote %d spans to %s\n", len(loaded), o.traceOut)
	}
	if o.repeat > 1 {
		printSpreads(sets)
	}
	if o.out != "" {
		if err := writeJSON(o.out, sets); err != nil {
			return err
		}
	}
	if o.calibrate && ok {
		if err := writeCalibration(sets, o.seconds, o.benchJSON, o.calibOut); err != nil {
			return err
		}
	}
	// The driver reads the last line of standard output.
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ok {
		return fmt.Errorf("a run failed its correctness check or was marked invalid")
	}
	return nil
}

// printResult prints one workload's metrics by name with their units.
func printResult(res *result) {
	fmt.Printf("\n== %s  seed=%d  input_digest=%s\n", res.workload, res.seed, res.digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return metricOrder(names[i]) < metricOrder(names[j]) })
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Printf("  %-30s %14.4f %s\n", n, v.Value, v.Unit)
	}
	if _, listed := res.Metrics["load.p99_ms"]; !listed {
		fmt.Printf("  %-30s %14.4f ms  (reported only)\n", "p99_ms", res.p99Ms)
	}
	fmt.Printf("  %-30s %14.6f ratio  (%d failed of %d attempted)\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, n := range res.notes {
		fmt.Printf("  ! %s\n", n)
	}
	if len(res.spans) > 0 {
		printSelfTimes(res.spans)
	}
}

// metricOrder sorts metrics in definition order, end to end first.
func metricOrder(name string) int {
	for i, d := range endToEnd {
		if d.name == name {
			return i
		}
	}
	for i, d := range perLayer {
		if d.name == name {
			return len(endToEnd) + i
		}
	}
	return len(endToEnd) + len(perLayer)
}

// printSelfTimes prints, per span name, the kept spans' mean duration and
// mean self time (duration minus what child spans cover).
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	type agg struct{ n, dur, self int64 }
	by := make(map[string]*agg)
	for _, sp := range spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{}
			by[sp.Name] = a
		}
		a.n++
		a.dur += sp.EndNs - sp.StartNs
		a.self += self[sp.ID]
	}
	fmt.Printf("  spans kept (1 in %d):\n", sampleEvery)
	for _, name := range spanNames {
		if a := by[name]; a != nil {
			fmt.Printf("    %-22s %8d spans  mean %12.1f us  self %12.1f us\n",
				name, a.n, float64(a.dur)/float64(a.n)/1e3, float64(a.self)/float64(a.n)/1e3)
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
