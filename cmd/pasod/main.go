// Command pasod hosts one PASO machine as a standalone process over the
// TCP transport: a memory server plus a line-oriented client port that
// local compute processes (or pasoctl) drive PASO operations through.
//
// A three-machine ensemble on one host:
//
//	pasod -id 1 -listen 127.0.0.1:7101 -client 127.0.0.1:7201 \
//	      -peers 2=127.0.0.1:7102,3=127.0.0.1:7103
//	pasod -id 2 -listen 127.0.0.1:7102 -client 127.0.0.1:7202 \
//	      -peers 1=127.0.0.1:7101,3=127.0.0.1:7103
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
// Every daemon derives each class's basic support B(C), λ+1 machines, from
// the ensemble its -id and -peers name (core.Config.SupportMap, as every
// in-process cluster does): round-robin over the sorted IDs, or the
// placement assignment with -placement. The daemons must therefore be
// started with the same ensemble and -lambda, and λ must be smaller than
// the ensemble.
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
// basic supports follow the placement assignment. Adding -leases turns on
// the epoch-fenced leased-read fast path (PROTOCOL.md, "Leased reads"):
// reads from non-members go point-to-point to one placed member and fall
// back to the ordered path on any view change; `pasoctl stats` shows the
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

// run parses the flags and serves until SIGINT or SIGTERM.
func run(args []string) error {
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return serve(c, sig)
}

// config is a daemon's settings, one field per flag.
type config struct {
	id          transport.NodeID
	listen      string
	client      string
	peers       map[transport.NodeID]string
	names       []string
	arity       int
	lambda      int
	k           int
	heartbeat   time.Duration
	failTimeout time.Duration
	incarnation uint64
	debugAddr   string
	traceOps    bool
	placement   bool
	leases      bool
	sampleEvery time.Duration
	flightDir   string
}

func parseFlags(args []string) (config, error) {
	var (
		c            config
		id           uint64
		peers, names string
	)
	fs := flag.NewFlagSet("pasod", flag.ContinueOnError)
	fs.Uint64Var(&id, "id", 0, "machine id (required, ≥ 1)")
	fs.StringVar(&c.listen, "listen", "127.0.0.1:7101", "transport listen address")
	fs.StringVar(&c.client, "client", "127.0.0.1:7201", "client protocol listen address")
	fs.StringVar(&peers, "peers", "", "comma-separated id=host:port of the other daemons (with -id, the ensemble basic supports are derived over)")
	fs.StringVar(&names, "names", "point,task,result", "tuple names with dedicated classes")
	fs.IntVar(&c.arity, "arity", 6, "maximum tuple arity")
	fs.IntVar(&c.lambda, "lambda", 1, "crash tolerance λ (each class has λ+1 basic-support machines; must be < the ensemble size)")
	fs.IntVar(&c.k, "k", 8, "adaptive counter threshold K")
	fs.DurationVar(&c.heartbeat, "heartbeat", 50*time.Millisecond, "failure detector heartbeat")
	fs.DurationVar(&c.failTimeout, "fail-timeout", 500*time.Millisecond, "failure detector timeout")
	fs.Uint64Var(&c.incarnation, "incarnation", 0, "restart incarnation (bump after each crash)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "observability listen address (/metrics, /trace, /debug/pprof); empty disables")
	fs.BoolVar(&c.traceOps, "trace-ops", false, "trace every PASO operation across machines (/trace/ops, pasoctl trace)")
	fs.BoolVar(&c.placement, "placement", false, "shard per-class sequencing and supports across machines (off: the lowest live machine sequences every class, supports are round-robin)")
	fs.BoolVar(&c.leases, "leases", false, "read via the epoch-fenced leased fast path when not a member (needs -placement to derive targets)")
	fs.DurationVar(&c.sampleEvery, "sample-interval", 250*time.Millisecond, "time-series sampler interval (0 disables /timeseries and the flight recorder's rules)")
	fs.StringVar(&c.flightDir, "flight-dir", "", "flight-recorder bundle directory; empty disables bundle capture")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if id < 1 {
		return c, fmt.Errorf("-id is required")
	}
	c.id = transport.NodeID(id)
	var err error
	if c.peers, err = parsePeers(peers); err != nil {
		return c, err
	}
	// The ensemble is -id plus -peers; naming self twice would count one
	// machine twice toward a class's λ+1 supports.
	if _, ok := c.peers[c.id]; ok {
		return c, fmt.Errorf("-peers names this daemon's own -id %d", id)
	}
	c.names = splitNames(names)
	return c, nil
}

// serve runs a daemon until stop delivers a signal.
func serve(c config, stop <-chan os.Signal) error {
	d, err := start(c)
	if err != nil {
		return err
	}
	s := <-stop
	d.log.Info("shutting down", "signal", s.String())
	d.close()
	d.log.Info("shutdown complete")
	return nil
}

// daemon is one running pasod: the transport endpoint, the machine on it,
// the client protocol server, and the observability plane around them.
type daemon struct {
	log     *slog.Logger
	ep      *tcp.Endpoint
	m       *core.Machine
	srv     *core.ProtocolServer
	debug   *obs.DebugServer // nil without -debug-addr
	sampler *flight.Sampler  // nil when -sample-interval is 0
}

// start brings a daemon up and returns once it serves clients.
func start(c config) (*daemon, error) {
	ensemble := []transport.NodeID{c.id}
	for pid := range c.peers {
		ensemble = append(ensemble, pid)
	}
	if c.lambda >= len(ensemble) {
		return nil, fmt.Errorf("-lambda %d must be < %d, the ensemble size (-id plus -peers)", c.lambda, len(ensemble))
	}

	// The root Obs gets the bare logger; each layer stamps its own
	// "machine" attribute exactly once (core derives a With view itself,
	// the transport gets one here, and pasod's own messages use d.log).
	o := obs.New(obs.Options{
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, nil)),
		TraceCap: eventCap,
		SpanCap:  spanCap,
	})
	d := &daemon{log: o.Logger().With("machine", c.id)}
	ep, err := tcp.Listen(c.id, c.listen, tcp.Options{
		HeartbeatInterval: c.heartbeat,
		FailTimeout:       c.failTimeout,
		Obs:               o.With(obs.KV("machine", c.id)),
	})
	if err != nil {
		return nil, err
	}
	d.ep = ep
	for pid, addr := range c.peers {
		ep.AddPeer(pid, addr)
	}

	cfg := core.Config{
		Classifier:  class.NewNameArity(c.names, c.arity),
		Lambda:      c.lambda,
		StoreKind:   storage.KindHash,
		NewPolicy:   core.BasicPolicyFactory(c.k),
		TraceOps:    c.traceOps,
		Placement:   c.placement,
		LeasedReads: c.leases,
		Obs:         o,
	}
	basics := cfg.BasicClasses(c.id, ensemble)

	// Flight-recorder plane: /placement is always served; the sampler and
	// recorder arm on their flags. All of it is observer-only — nothing
	// here feeds back into the protocol.
	var assignFn func() any
	if c.placement {
		pol := placement.New(cfg.Classifier.Classes(), cfg.Lambda)
		assignFn = func() any {
			return pol.Assign(append(ep.Alive(), c.id))
		}
	}
	if c.sampleEvery > 0 {
		d.sampler = flight.NewSampler(o.Reg(), flight.SamplerOptions{Interval: c.sampleEvery})
		o.Handle("/timeseries", d.sampler.Handler())
	}
	o.Handle("/placement", flight.PlacementHandler(o, assignFn))
	if c.flightDir != "" {
		rec := flight.NewRecorder(flight.RecorderOptions{
			Dir: c.flightDir, Obs: o, Sampler: d.sampler, Placement: assignFn,
		})
		o.Handle("/flight", rec.Handler())
	}
	if d.sampler != nil {
		// Started after the recorder is armed so no frame escapes the rules.
		d.sampler.Start()
	}
	d.log.Info("starting",
		"transport", ep.Addr(), "client", c.client, "peers", len(c.peers),
		"lambda", c.lambda, "basic-classes", len(basics))
	if d.m, err = core.StartMachine(ep, cfg, basics, c.incarnation+1); err != nil {
		d.close()
		return nil, fmt.Errorf("start machine: %w", err)
	}
	d.log.Info("init phase done", "took", d.m.InitTime().Round(time.Millisecond).String())

	// The per-OpKind cost aggregates live in the machine's meter; expose
	// them through /metrics via a scrape-time collector so the endpoint,
	// pasoctl stats, and the harness all read the same snapshot.
	o.AddCollector("core.ops", func() map[string]float64 {
		return core.ReportMetrics(o.Reg(), d.m.Report())
	})

	if c.debugAddr != "" {
		if d.debug, err = o.ServeDebug(c.debugAddr); err != nil {
			d.close()
			return nil, err
		}
		d.log.Info("debug endpoints up", "addr", d.debug.Addr(),
			"paths", "/metrics /trace /timeseries /placement /flight /healthz /debug/pprof/")
	}
	if d.srv, err = core.ServeProtocol(c.client, d.m); err != nil {
		d.close()
		return nil, err
	}
	d.log.Info("serving clients", "addr", d.srv.Addr())
	return d, nil
}

// close shuts the daemon down; it is safe on a partly started one. Ordering
// matters: stop accepting and finish in-flight client commands first, then
// stop the machine, then the debug endpoints (useful until the very end),
// the sampler, and finally the transport.
func (d *daemon) close() {
	if d.srv != nil {
		if err := d.srv.Close(); err != nil {
			d.log.Warn("protocol server close", "err", err)
		}
	}
	if d.m != nil {
		d.m.Stop()
	}
	if d.debug != nil {
		d.debug.Close()
	}
	if d.sampler != nil {
		d.sampler.Stop()
	}
	d.ep.Close()
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
