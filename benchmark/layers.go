package main

import (
	"sort"
	"sync"
	"time"

	"paso/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd are what an application process using the tuple space waits for
// or pays. Bounds live in BENCHMARK.json, not here.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// demoted are metrics the issue wanted gated that calibration showed cannot
// hold a bound on this machine; they are reported, not gated, and the
// calibration record carries the reason.
var demoted = []struct {
	Metric string `json:"metric"`
	Now    string `json:"reported_as"`
	Reason string `json:"reason"`
}{
	{"p99_ms", "load.p99_ms", "ten runs of mixed-paced spread it by 19% and then 29%, and the two sets' medians " +
		"differed by 44% (2.37 ms against 3.42 ms), with mixed-sat at 25% in the second set: a bound needs " +
		"three times the spread and the ceiling is 25%. The window cannot be lengthened under the run-time cap, " +
		"and the swing is between runs, not within one (the host's wake-up and syscall cost moves for minutes at a time)."},
}

// perLayer are the single-layer metrics of the traced run and the replays,
// layer = module name. The README defines each.
var perLayer = []metricDef{
	{"load.late_p99_ms", "ms", "lower"},
	{"load.achieved_ratio", "ratio", "higher"},
	{"load.hit_ratio", "ratio", "higher"},
	{"load.p99_ms", "ms", "lower"},

	{"core.insert_ms_p50", "ms", "lower"},
	{"core.readdel_ms_p50", "ms", "lower"},
	{"core.read_local_us_p50", "us", "lower"},
	{"core.read_remote_ms_p50", "ms", "lower"},
	{"core.lease_served_ratio", "ratio", "higher"},
	{"core.local_read_ratio", "ratio", "higher"},
	{"core.msg_cost_per_op", "cost", "lower"},
	{"core.msg_cost_per_op_static", "cost", "lower"},
	{"core.policy_joins", "count", "lower"},
	{"core.policy_leaves", "count", "lower"},

	{"vsync.gcast_ms_p50", "ms", "lower"},
	{"vsync.gcasts_per_s", "1/s", "higher"},
	{"vsync.events_per_ordered_run", "count", "higher"},
	{"vsync.order_wait_ms_mean", "ms", "lower"},
	{"vsync.rounds_per_op", "count", "lower"},

	{"tcp.sends_per_op", "count", "lower"},
	{"tcp.bytes_per_op", "B", "lower"},
	{"tcp.send_call_us_p50", "us", "lower"},
	{"tcp.frames_per_flush", "count", "higher"},
	{"tcp.sendq_wait_ms_mean", "ms", "lower"},
	{"tcp.socket_write_ms_mean", "ms", "lower"},
	{"tcp.rtt_us_p50", "us", "lower"},
	{"tcp.frames_per_s", "1/s", "higher"},
	{"tcp.latency_over_floor", "ratio", "lower"},

	{"storage.insert_ns", "ns", "lower"},
	{"storage.read_ns", "ns", "lower"},
	{"storage.remove_ns", "ns", "lower"},
	{"storage.probes_per_read", "count", "lower"},

	{"tuple.encode_ns", "ns", "lower"},
	{"tuple.decode_ns", "ns", "lower"},
	{"tuple.match_ns", "ns", "lower"},
	{"tuple.encoded_bytes", "B", "lower"},
	{"tuple.encode_allocs", "count", "lower"},
	{"tuple.decode_allocs", "count", "lower"},
	{"tuple.match_allocs", "count", "lower"},

	{"class.classof_ns", "ns", "lower"},
	{"class.searchlist_len", "count", "lower"},
	{"placement.assign_us", "us", "lower"},
	{"placement.coord_spread", "ratio", "lower"},

	{"adaptive.decide_ns", "ns", "lower"},
	{"adaptive.joins", "count", "lower"},
	{"adaptive.leaves", "count", "lower"},
	{"adaptive.converge_ms", "ms", "lower"},

	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"obs.unattributed_share", "ratio", "lower"},
	{"proc.cpu_s_per_kop", "s", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.heap_peak_mb", "MB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
}

// ratio returns a/b, or 0 when b is 0: a layer metric with nothing to count
// (no leases configured, no reads on that path) reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the traced pass's per-layer numbers from the window's
// samples, the two counter snapshots, and the decorators. The replays and
// the cross-run ratios are added by the caller.
func layerMetrics(p *pass, inWindow []sample, w0, w1 snap, dec *decorators, converge []float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	ops := float64(len(inWindow))
	counter := func(name string) float64 { return float64(w1.reg.Counters[name] - w0.reg.Counters[name]) }
	hist := func(name string) obs.HistSnapshot { return obs.Delta(w1.reg.Histograms[name], w0.reg.Histograms[name]) }

	out["load.late_p99_ms"] = p.ws.lateP99Ms
	out["load.achieved_ratio"] = p.achievedRatio
	out["load.hit_ratio"] = p.hitRatio

	// core: latency by primitive and read path, timed at the Machine call.
	var byPath [numPaths][]float64
	for _, sm := range inWindow {
		byPath[sm.path] = append(byPath[sm.path], float64(sm.lat)/float64(time.Millisecond))
	}
	p50 := func(path uint8) float64 {
		sort.Float64s(byPath[path])
		return percentile(byPath[path], 0.5)
	}
	out["core.insert_ms_p50"] = p50(pathInsert)
	out["core.readdel_ms_p50"] = p50(pathReadDel)
	out["core.read_local_us_p50"] = p50(pathReadLocal) * 1e3
	out["core.read_remote_ms_p50"] = p50(pathReadRemote)
	reads := float64(len(byPath[pathReadLocal]) + len(byPath[pathReadRemote]))
	out["core.local_read_ratio"] = ratio(float64(len(byPath[pathReadLocal])), reads)
	leased, fell := float64(w1.leased-w0.leased), float64(w1.fell-w0.fell)
	out["core.lease_served_ratio"] = ratio(leased, leased+fell)
	out["core.msg_cost_per_op"] = p.msgCostPerOp
	out["core.policy_joins"] = float64(w1.joins)
	out["core.policy_leaves"] = float64(w1.quits)

	// vsync and transport, from the cluster's own registry.
	out["vsync.events_per_ordered_run"] = ratio(counter("vsync.order.run.casts"), counter("vsync.order.runs"))
	out["vsync.order_wait_ms_mean"] = hist(obs.StageOrder).Mean * 1e3
	out["vsync.rounds_per_op"] = ratio(counter("vsync.gcast.total"), ops)
	out["tcp.frames_per_flush"] = ratio(counter("transport.flush.frames"), counter("transport.flushes"))
	out["tcp.sendq_wait_ms_mean"] = hist(obs.StageSendQueue).Mean * 1e3
	out["tcp.socket_write_ms_mean"] = hist(obs.StageSocketWrite).Mean * 1e3

	// transport, from the endpoint decorators.
	out["tcp.sends_per_op"] = ratio(float64(w1.frames-w0.frames), ops)
	out["tcp.bytes_per_op"] = ratio(float64(w1.bytes-w0.bytes), ops)
	var sends, classOfs, searches []*timing
	var listLen float64
	for m := 0; m < machines; m++ {
		sends = append(sends, dec.endpoints[m].send)
		classOfs = append(classOfs, dec.classifiers[m].classOf)
		searches = append(searches, dec.classifiers[m].search)
		listLen += float64(dec.classifiers[m].listLen.Load())
	}
	out["tcp.send_call_us_p50"] = merged(sends...).P50 * 1e6

	// class and adaptive, from their decorators.
	out["class.classof_ns"] = merged(classOfs...).Mean * 1e9
	out["class.searchlist_len"] = ratio(listLen, float64(merged(searches...).Count))
	out["adaptive.decide_ns"] = merged(dec.decide...).Mean * 1e9
	for m := range dec.pairs {
		for _, pc := range dec.pairs[m] {
			if pc != nil {
				out["adaptive.joins"] += float64(pc.joins.Load())
				out["adaptive.leaves"] += float64(pc.leaves.Load())
			}
		}
	}
	out["adaptive.converge_ms"] = median(converge)

	// obs: how much of the mean operation latency the stage histograms
	// account for. Stage time summed over every stage observation in the
	// window, per operation, against the mean operation latency.
	var staged float64
	for _, name := range obs.StageOrderNames {
		staged += hist(name).Sum
	}
	out["obs.unattributed_share"] = 1 - ratio(ratio(staged, ops), p.ws.meanMs/1e3)

	// process.
	out["proc.cpu_s_per_kop"] = ratio((w1.cpu - w0.cpu).Seconds(), ops/1e3)
	out["proc.allocs_per_op"] = ratio(float64(w1.mem.Mallocs-w0.mem.Mallocs), ops)
	out["proc.heap_peak_mb"] = float64(w1.mem.HeapSys) / (1 << 20)
	out["proc.gc_pause_ms"] = float64(w1.mem.PauseTotalNs-w0.mem.PauseTotalNs) / 1e6
	return out
}

// membershipWatch polls, once a millisecond, whether each machine replicates
// each class it is not basic support for. It keeps the run's membership
// cache current and times how long after the start of a read-heavy phase a
// machine's reads turned local.
type membershipWatch struct {
	quit     chan struct{}
	done     sync.WaitGroup
	converge []float64 // ms, one per (pair, read-heavy phase) that converged
}

func watchMembership(r *run) *membershipWatch {
	w := &membershipWatch{quit: make(chan struct{})}
	type pair struct{ m, c, seen int }
	var pairs []pair
	for m := 0; m < machines; m++ {
		for c := range r.cl.classes {
			if !r.cl.basic[m][c] {
				pairs = append(pairs, pair{m, c, -1})
			}
		}
	}
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.quit:
				return
			case <-tick.C:
			}
			now := time.Since(r.t0)
			phase := int(now / phaseLen)
			for i := range pairs {
				pr := &pairs[i]
				member := r.cl.machines[pr.m].MemberOf(r.cl.classes[pr.c])
				r.member[pr.m][pr.c].Store(member)
				// Phase 0, 2, 4... run the read-heavy mix.
				if member && phase%2 == 0 && pr.seen != phase {
					pr.seen = phase
					w.converge = append(w.converge, float64(now-time.Duration(phase)*phaseLen)/float64(time.Millisecond))
				}
			}
		}
	}()
	return w
}

// stop ends the polling and returns the convergence times.
func (w *membershipWatch) stop() []float64 {
	close(w.quit)
	w.done.Wait()
	return w.converge
}
