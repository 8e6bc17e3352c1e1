// Command pasod hosts one PASO machine as a standalone process over the
// TCP transport: a memory server plus a line-oriented client port that
// local compute processes (or pasoctl) drive PASO operations through.
//
// A three-machine ensemble on one host:
//
//	pasod -id 1 -listen 127.0.0.1:7101 -client 127.0.0.1:7201 \
//	      -peers 2=127.0.0.1:7102,3=127.0.0.1:7103 -support
//	pasod -id 2 -listen 127.0.0.1:7102 -client 127.0.0.1:7202 \
//	      -peers 1=127.0.0.1:7101,3=127.0.0.1:7103 -support
//	pasod -id 3 -listen 127.0.0.1:7103 -client 127.0.0.1:7203 \
//	      -peers 1=127.0.0.1:7101,2=127.0.0.1:7102
//
// Then:
//
//	pasoctl -addr 127.0.0.1:7203 insert point s:origin i:3 i:4
//	pasoctl -addr 127.0.0.1:7201 read point ?s ?i ?i
//	pasoctl -addr 127.0.0.1:7202 take point ?s ?i ?i
//	pasoctl -addr 127.0.0.1:7201 stats
//
// The client protocol is one command per line; see internal/core/protocol.
//
// With -debug-addr set, the daemon also serves live observability
// endpoints: /metrics (Prometheus text exposition — counters, gauges,
// and the log-bucketed latency histograms, including the per-stage
// pipeline breakdown and the per-peer send-queue watermarks), the same
// registry as JSON at /metrics.json (or /metrics?format=json), /trace
// (the recent event ring: view changes, policy join/leave decisions,
// peer up/down, send-queue stalls), /healthz, and the standard
// /debug/pprof/ profiling handlers — plus the flight-recorder plane:
// /timeseries (the delta-compressed metrics ring, -sample-interval),
// /placement (the per-group ownership timeline folded from the event ring,
// also at /trace?kind=ownership, and the current placement assignment),
// and /flight (diagnostic bundles captured when an armed trigger fires;
// -flight-dir enables capture). `pasoctl top` and `pasoctl flight` consume
// these across a cluster.
//
// With -placement, per-class sequencing shards across the ensemble and
// each daemon's basic supports follow the placement assignment (the
// -support flag is subsumed). Adding -leases turns on the epoch-fenced
// leased-read fast path (PROTOCOL.md, "Leased reads"): reads from
// non-members go point-to-point to one placed member and fall back to
// the ordered path on any view change; `pasoctl stats` shows the
// read-leased row and the per-class leased/fallback table.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/placement"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
)

// Ring sizes. The event ring is also the ownership timeline /placement and
// flight bundles fold, so it carries more than the obs default.
const (
	eventCap = 2048
	spanCap  = 8192
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pasod:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pasod", flag.ContinueOnError)
	var (
		id        = fs.Uint64("id", 0, "machine id (required, ≥ 1)")
		listen    = fs.String("listen", "127.0.0.1:7101", "transport listen address")
		client    = fs.String("client", "127.0.0.1:7201", "client protocol listen address")
		peers     = fs.String("peers", "", "comma-separated id=host:port transport peers")
		names     = fs.String("names", "point,task,result", "tuple names with dedicated classes")
		arity     = fs.Int("arity", 6, "maximum tuple arity")
		lambda    = fs.Int("lambda", 1, "crash tolerance λ")
		support   = fs.Bool("support", false, "act as basic support for every class")
		k         = fs.Int("k", 8, "adaptive counter threshold K")
		hb        = fs.Duration("heartbeat", 50*time.Millisecond, "failure detector heartbeat")
		timeout   = fs.Duration("fail-timeout", 500*time.Millisecond, "failure detector timeout")
		inc       = fs.Uint64("incarnation", 0, "restart incarnation (bump after each crash)")
		debugAddr = fs.String("debug-addr", "", "observability listen address (/metrics, /trace, /debug/pprof); empty disables")
		traceOps  = fs.Bool("trace-ops", false, "trace every PASO operation across machines (/trace/ops, pasoctl trace)")
		placed    = fs.Bool("placement", false, "shard per-class sequencing across machines (off: the lowest live machine sequences every class)")
		leases    = fs.Bool("leases", false, "read via the epoch-fenced leased fast path when not a member (needs -placement to derive targets)")

		sampleEvery = fs.Duration("sample-interval", 250*time.Millisecond, "time-series sampler interval (0 disables /timeseries and the flight recorder's rules)")
		flightDir   = fs.String("flight-dir", "", "flight-recorder bundle directory; empty disables bundle capture")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id < 1 {
		return fmt.Errorf("-id is required")
	}
	peerMap, err := parsePeers(*peers)
	if err != nil {
		return err
	}

	// The root Obs gets the bare logger; each layer stamps its own
	// "machine" attribute exactly once (core derives a With view itself,
	// the transport gets one here, and pasod's own messages use logger).
	o := obs.New(obs.Options{
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, nil)),
		TraceCap: eventCap,
		SpanCap:  spanCap,
	})
	logger := o.Logger().With("machine", *id)

	ep, err := tcp.Listen(transport.NodeID(*id), *listen, tcp.Options{
		HeartbeatInterval: *hb,
		FailTimeout:       *timeout,
		Obs:               o.With(obs.KV("machine", *id)),
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	for pid, addr := range peerMap {
		ep.AddPeer(pid, addr)
	}

	// Flight-recorder plane: /placement is always served; the sampler and
	// recorder arm on their flags. All of it is observer-only — nothing
	// here feeds back into the protocol.
	cfg := core.Config{
		Classifier:  class.NewNameArity(splitNames(*names), *arity),
		Lambda:      *lambda,
		StoreKind:   storage.KindHash,
		NewPolicy:   core.BasicPolicyFactory(*k),
		TraceOps:    *traceOps,
		Placement:   *placed,
		LeasedReads: *leases,
		Obs:         o,
	}
	self := transport.NodeID(*id)
	ensemble := []transport.NodeID{self}
	for pid := range peerMap {
		ensemble = append(ensemble, pid)
	}
	var assignFn func() any
	if *placed {
		// Basics follow the placement assignment over the configured
		// ensemble (core.Config.SupportMap), so every wg(C) is exactly the
		// members the placement function names — which is also where leased
		// reads look for their targets. -support is subsumed.
		pol := placement.New(cfg.Classifier.Classes(), cfg.Lambda)
		assignFn = func() any {
			return pol.Assign(append(ep.Alive(), self))
		}
	} else {
		// Without -placement the operator pins supports per daemon: -support
		// puts this one in every B(C), its absence in none.
		cfg.Support = make(map[class.ID][]transport.NodeID)
		if *support {
			for _, cls := range cfg.Classifier.Classes() {
				cfg.Support[cls] = []transport.NodeID{self}
			}
		}
	}
	basics := cfg.BasicClasses(self, ensemble)
	var sampler *flight.Sampler
	if *sampleEvery > 0 {
		sampler = flight.NewSampler(o.Reg(), flight.SamplerOptions{Interval: *sampleEvery})
		o.Handle("/timeseries", sampler.Handler())
	}
	o.Handle("/placement", flight.PlacementHandler(o, assignFn))
	if *flightDir != "" {
		rec := flight.NewRecorder(flight.RecorderOptions{
			Dir: *flightDir, Obs: o, Sampler: sampler, Placement: assignFn,
		})
		o.Handle("/flight", rec.Handler())
	}
	if sampler != nil {
		// Started after the recorder is armed so no frame escapes the rules.
		sampler.Start()
		defer sampler.Stop()
	}
	logger.Info("starting",
		"transport", ep.Addr(), "client", *client,
		"peers", len(peerMap), "support", *support, "lambda", *lambda)
	m, err := core.StartMachine(ep, cfg, basics, *inc+1)
	if err != nil {
		return fmt.Errorf("start machine: %w", err)
	}
	logger.Info("init phase done", "took", m.InitTime().Round(time.Millisecond).String())

	// The per-OpKind cost aggregates live in the machine's meter; expose
	// them through /metrics via a scrape-time collector so the endpoint,
	// pasoctl stats, and the harness all read the same snapshot.
	o.AddCollector("core.ops", func() map[string]float64 {
		return core.ReportMetrics(o.Reg(), m.Report())
	})

	var debug *obs.DebugServer
	if *debugAddr != "" {
		debug, err = o.ServeDebug(*debugAddr)
		if err != nil {
			m.Stop()
			return err
		}
		logger.Info("debug endpoints up", "addr", debug.Addr(),
			"paths", "/metrics /trace /timeseries /placement /flight /healthz /debug/pprof/")
	}

	srv, err := core.ServeProtocol(*client, m)
	if err != nil {
		if debug != nil {
			debug.Close()
		}
		m.Stop()
		return err
	}
	logger.Info("serving clients", "addr", srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	// Ordering matters: stop accepting and finish in-flight client
	// commands first, then stop the machine, then the debug endpoints
	// (useful until the very end), and finally the transport (deferred).
	if err := srv.Close(); err != nil {
		logger.Warn("protocol server close", "err", err)
	}
	m.Stop()
	if debug != nil {
		debug.Close()
	}
	logger.Info("shutdown complete")
	return nil
}

func parsePeers(csv string) (map[transport.NodeID]string, error) {
	out := make(map[transport.NodeID]string)
	if csv == "" {
		return out, nil
	}
	for _, part := range strings.Split(csv, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil || id < 1 {
			return nil, fmt.Errorf("bad peer id %q", kv[0])
		}
		out[transport.NodeID(id)] = kv[1]
	}
	return out, nil
}

func splitNames(csv string) []string {
	var out []string
	for _, n := range strings.Split(csv, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}
