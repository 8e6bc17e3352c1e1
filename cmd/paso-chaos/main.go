// Command paso-chaos runs a named deterministic fault-injection scenario
// against a simulated PASO cluster and verifies the λ−k+1 fault-tolerance
// invariant plus the A1–A3 operation semantics throughout (FAULTS.md).
//
// The report on stdout — schedule, probe outcomes, verdict — is
// bit-identical for a given (scenario, seed, n, lambda, rounds) tuple, so
// a failure reproduces exactly by rerunning the printed command line.
//
// Exit status: 0 the run passed, 1 an invariant or semantics violation
// was detected, 2 usage error.
//
// Example:
//
//	paso-chaos -scenario rolling-crash -seed 42
//	paso-chaos -list
//	paso-chaos -scenario lossy-link -seed 13 -rounds 3 -log chaos.json
//	paso-chaos -scenario rolling-crash -seed 42 -traces traces.txt
//
// With -traces, operation tracing runs through the whole scenario and
// every probe leg's assembled cross-machine timeline is written to the
// given file, with spans lost to injected faults called out as explicit
// GAP annotations. Trace timelines carry wall-clock offsets and, like the
// -log event dump, are not part of the deterministic stdout surface.
//
// With -flight, a flight recorder is armed over the run: the default
// trigger rules watch the cluster's merged metrics and a final bundle is
// force-captured at scenario end, so every chaos run leaves at least one
// postmortem artifact (README, "Flight recorder"). The bundle inventory is
// printed to stderr — bundles carry wall-clock data and stay off the
// deterministic stdout surface.
//
// With -leases the cluster runs the leased-read fast path (PROTOCOL.md,
// "Leased reads") under the same fault schedule: reads from non-support
// machines go point-to-point under the view epoch and fall back to the
// ordered path on any fence. The invariant and semantics checks are
// identical — a chaos run with leases on asserts the lease is invisible
// to the A1–A3 semantics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"paso/internal/faults"
	"paso/internal/obs"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paso-chaos:", err)
	}
	os.Exit(code)
}

// run executes the CLI against out and returns the process exit code. A
// non-nil error is a usage or I/O problem (code 2); scenario violations
// are reported in the output itself (code 1).
func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("paso-chaos", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		scenario = fs.String("scenario", "", "scenario to run: "+strings.Join(faults.ScenarioNames(), "|"))
		seed     = fs.Uint64("seed", 1, "deterministic fault seed")
		rounds   = fs.Int("rounds", 0, "schedule rounds (0 = scenario default)")
		n        = fs.Int("n", 0, "machines in the ensemble (0 = scenario default)")
		lambda   = fs.Int("lambda", 0, "crash tolerance λ (0 = scenario default)")
		logPath  = fs.String("log", "", "write the obs event log (JSON lines, wall-clock order) to this file")
		trPath   = fs.String("traces", "", "trace every probe op and write the assembled timelines to this file")
		flight   = fs.String("flight", "", "arm a flight recorder and write diagnostic bundles into this directory")
		leases   = fs.Bool("leases", false, "run the cluster with the leased-read fast path enabled")
		list     = fs.Bool("list", false, "list scenarios and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the problem
	}
	if *list {
		for _, name := range faults.ScenarioNames() {
			fmt.Fprintln(out, name)
		}
		return 0, nil
	}
	if *scenario == "" {
		return 2, fmt.Errorf("missing -scenario (one of %s)", strings.Join(faults.ScenarioNames(), ", "))
	}

	sc, err := faults.Build(*scenario, *seed, *n, *lambda, *rounds)
	if err != nil {
		return 2, err
	}
	o := obs.New(obs.Options{TraceCap: 65536, SpanCap: 65536})
	res, err := faults.Run(sc, faults.RunOptions{
		Out: out, Obs: o, Trace: *trPath != "", FlightDir: *flight,
		Leases: *leases,
	})
	if err != nil {
		return 2, err
	}
	if *flight != "" {
		// Bundle inventory goes to stderr: bundle contents are wall-clock
		// data, and stdout must stay the deterministic report surface.
		fmt.Fprintf(os.Stderr, "flight: %d bundle(s) in %s\n", len(res.Bundles), *flight)
		for _, id := range res.Bundles {
			fmt.Fprintf(os.Stderr, "flight: %s\n", id)
		}
	}
	if *logPath != "" {
		if werr := writeEventLog(*logPath, o); werr != nil {
			return 2, werr
		}
	}
	if *trPath != "" {
		if werr := writeProbeTraces(*trPath, res.ProbeTraces); werr != nil {
			return 2, werr
		}
	}
	if !res.OK() {
		return 1, nil
	}
	return 0, nil
}

// writeEventLog dumps the harness event trace as JSON lines. This is the
// wall-clock execution record — unlike the stdout report it is NOT part of
// the deterministic surface (FAULTS.md §5).
func writeEventLog(path string, o *obs.Obs) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, ev := range o.Events().Snapshot() {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// writeProbeTraces renders every probe leg's assembled timeline to path.
func writeProbeTraces(path string, traces []faults.ProbeTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, pt := range traces {
		fmt.Fprintf(f, "probe %d m=%d %s\n", pt.Probe, pt.Node, pt.Op)
		fmt.Fprint(f, pt.Trace.Render())
		fmt.Fprintln(f)
	}
	return f.Close()
}
