package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"paso/internal/obs"
)

// snap is the cluster's and the process's cumulative counters at one
// instant; the per-layer report is built from the difference of two.
type snap struct {
	msgCost      float64
	leased, fell int64
	joins, quits int64 // core.policy.joins / core.policy.leaves

	// Traced run only.
	reg           obs.RegistrySnapshot
	frames, bytes int64 // the endpoint decorators' wire frames and bytes
	cpu           time.Duration
	mem           runtime.MemStats
}

func takeSnap(cl *cluster, dec *decorators) snap {
	var s snap
	for _, m := range cl.machines {
		for _, st := range m.Stats() {
			s.msgCost += st.MsgCost // the Figure-1 meter, summed over kinds and machines
		}
		leased, fell, _ := m.LeaseStats()
		s.leased += leased
		s.fell += fell
	}
	s.joins = cl.obs.Counter("core.policy.joins").Value()
	s.quits = cl.obs.Counter("core.policy.leaves").Value()
	if dec == nil {
		return s
	}
	s.reg = cl.obs.Reg().Snapshot()
	for _, ep := range dec.endpoints {
		s.frames += ep.frames.Load()
		s.bytes += ep.bytes.Load()
	}
	s.cpu = cpuTime()
	runtime.ReadMemStats(&s.mem)
	return s
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // reported as zero CPU; the metric is a diagnostic
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxLateMs is how late (p99 of issue minus due, in the typical second) the
// open loop's generator may run before the run is invalid. The workers share
// two CPUs with the cluster they load, so at a quarter of saturation a
// runnable worker already waits about a millisecond for a processor at the
// p99; that wait is charged to the operation's latency like any other. Past
// this limit the tail would be the generator's, not the system's.
const maxLateMs = 5.0

// pass is the outcome of one measured pass of a workload.
type pass struct {
	setups []float64 // seconds, one per set-up made
	ws     windowStats

	attempted int
	failed    int      // errors + correctness violations
	notes     []string // what failed, and why a run is invalid
	invalid   bool

	achievedRatio float64
	hitRatio      float64
	msgCostPerOp  float64
	policyJoins   int64

	// Traced pass only.
	layer       map[string]float64
	spans       []span
	pairs       [][]*pairCount // policy decisions per non-basic (machine, class)
	frameBytes  float64        // mean payload of a wire frame in the window
	leasedPerOp float64        // leased reads per operation in the window
}

// measure sets the cluster up (setups times, keeping the last), drives one
// warm-up and window, checks correctness, and tears the cluster down.
func measure(in *inputs, warm, window time.Duration, traced bool, setups int) (*pass, error) {
	s := in.spec
	p := &pass{}
	var tr *tracer
	var dec *decorators
	var hk hooks
	if traced {
		tr = newTracer()
		dec, hk = newDecorators(tr, s.classes)
	}
	var cl *cluster
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.close()
		}
		begin := time.Now()
		var err error
		if cl, err = startCluster(in, hk); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		p.setups = append(p.setups, time.Since(begin).Seconds())
	}
	defer cl.close()

	r := newRun(in, cl, tr, warm, window)
	r.t0 = time.Now()
	atWindow := make(chan snap, 1)
	timer := time.AfterFunc(warm, func() { atWindow <- takeSnap(cl, dec) })
	defer timer.Stop()
	var watch *membershipWatch
	if traced && s.policyK > 0 {
		watch = watchMembership(r)
	}
	err := r.drive()
	var converge []float64
	if watch != nil {
		converge = watch.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	w0, w1 := <-atWindow, takeSnap(cl, dec)

	// End to end.
	var inWindow []sample
	lookups, misses := 0, 0
	for _, cs := range r.clients {
		p.attempted += cs.attempted
		p.failed += cs.errs
		if cs.firstErr != nil && len(p.notes) < 3 {
			p.notes = append(p.notes, cs.firstErr.Error())
		}
		lookups += cs.lookups
		misses += cs.misses
		for _, sm := range cs.samples {
			if sm.end >= warm && sm.end < warm+window {
				inWindow = append(inWindow, sm)
			}
		}
	}
	p.ws = summarize(inWindow, warm, window)
	if lookups > 0 {
		p.hitRatio = 1 - float64(misses)/float64(lookups)
	}
	violations, notes := r.check()
	p.failed += violations
	p.notes = append(p.notes, notes...)

	// Validity guards: the generator kept its schedule, reads found what
	// the workload was built to let them find, and no policy moved a
	// replica on a workload that configures none.
	p.achievedRatio = 1
	if s.openRate > 0 {
		p.achievedRatio = p.ws.perSec / s.openRate
		if p.achievedRatio < 0.99 {
			p.invalidate("achieved %.1f%% of the offered rate, need 99%%", 100*p.achievedRatio)
		}
		if p.ws.lateP99Ms > maxLateMs {
			p.invalidate("generator ran late: the typical second's p99 lateness is %.2f ms, over %v ms", p.ws.lateP99Ms, maxLateMs)
		}
	}
	if p.hitRatio < 0.99 {
		p.invalidate("only %.2f%% of reads and read&dels found a tuple, need 99%%", 100*p.hitRatio)
	}
	p.policyJoins = w1.joins
	if s.policyK == 0 && w1.joins != 0 {
		p.invalidate("%d policy joins on a workload with a static policy", w1.joins)
	}
	if p.ws.count > 0 {
		p.msgCostPerOp = (w1.msgCost - w0.msgCost) / float64(p.ws.count)
	}
	if traced {
		p.spans = tr.finish()
		p.pairs = dec.pairs
		p.frameBytes = ratio(float64(w1.bytes-w0.bytes), float64(w1.frames-w0.frames))
		p.leasedPerOp = ratio(float64(w1.leased-w0.leased), float64(p.ws.count))
		p.layer = layerMetrics(p, inWindow, w0, w1, dec, converge)
	}
	return p, nil
}

func (p *pass) invalidate(format string, args ...any) {
	p.invalid = true
	p.notes = append(p.notes, "invalid: "+fmt.Sprintf(format, args...))
}
