package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paso/internal/tuple"
)

// warmUp is discarded before every measured window of a real run; the smoke
// test shortens it.
const warmUp = 3 * time.Second

// Read paths, recorded per sample so the traced run can report latency by
// primitive and path.
const (
	pathInsert uint8 = iota
	pathReadLocal
	pathReadRemote
	pathReadDel
	numPaths
)

// clientStats is one issuing goroutine's private tally; nothing in it is
// shared until the run has ended.
type clientStats struct {
	samples   []sample
	inserted  []int // per class, successful inserts
	taken     []int // per class, successful read&dels
	takenIDs  []tuple.ID
	attempted int
	lookups   int // reads and read&dels attempted
	errs      int // operations that returned an error
	wrong     int // results that do not match their template
	misses    int // reads and read&dels that found nothing
	firstErr  error
}

// run is one measured pass of a workload over a running cluster.
type run struct {
	in     *inputs
	cl     *cluster
	tr     *tracer // nil in the untraced run
	t0     time.Time
	warm   time.Duration
	window time.Duration
	// do issues one operation on machine mi; a test substitutes a fake.
	do func(mi int, o *op) (tuple.Tuple, bool, error)
	// member[m][c] caches whether machine m replicates class c, so the
	// read path can be told apart without asking the machine on every
	// read. Static except under an adaptive policy, where the traced run's
	// poller keeps it current.
	member  [][]atomic.Bool
	clients []*clientStats
}

func newRun(in *inputs, cl *cluster, tr *tracer, warm, window time.Duration) *run {
	r := &run{in: in, cl: cl, tr: tr, warm: warm, window: window}
	r.do = r.onMachine
	r.member = make([][]atomic.Bool, machines)
	for m := range r.member {
		r.member[m] = make([]atomic.Bool, in.spec.classes)
		for c := range r.member[m] {
			r.member[m][c].Store(cl.basic[m][c])
		}
	}
	return r
}

// total is how long the clients issue for.
func (r *run) total() time.Duration { return r.warm + r.window }

// onMachine issues one operation through machine mi's public API. ok says
// whether it found (or stored) a tuple.
func (r *run) onMachine(mi int, o *op) (t tuple.Tuple, ok bool, err error) {
	m := r.cl.machines[mi]
	switch o.kind {
	case opInsert:
		t, err = m.Insert(o.tup)
		return t, err == nil, err
	case opRead:
		return m.Read(o.tpl)
	default:
		return m.ReadDel(o.tpl)
	}
}

// issue runs one operation on machine mi, checks its result, and records
// its latency from the time it was due.
func (r *run) issue(cs *clientStats, ctx *opCtx, mi int, o *op, due time.Duration) {
	path := [...]uint8{pathInsert, pathReadRemote, pathReadDel}[o.kind]
	if o.kind == opRead && r.member[mi][o.class].Load() {
		path = pathReadLocal
	}
	start := time.Since(r.t0)
	if ctx != nil {
		r.tr.beginOp(ctx, mi)
	}
	t, ok, err := r.do(mi, o)
	end := time.Since(r.t0)
	if ctx != nil {
		off := r.t0.Sub(r.tr.t0)
		r.tr.endOp(ctx, o.kind, mi, start+off, end+off)
	}
	cs.attempted++
	if o.kind != opInsert {
		cs.lookups++
	}
	cs.samples = append(cs.samples, sample{end: end, lat: end - due, late: start - due, path: path})
	switch {
	case err != nil:
		cs.errs++
		if cs.firstErr == nil {
			cs.firstErr = fmt.Errorf("%s on machine %d: %w", o.kind, mi+1, err)
		}
	case !ok:
		cs.misses++
	case o.kind == opInsert:
		if t.ID().IsZero() {
			cs.wrong++
		}
		cs.inserted[o.class]++
	default:
		if !o.tpl.Matches(t) {
			cs.wrong++
		}
		if o.kind == opReadDel {
			cs.taken[o.class]++
			cs.takenIDs = append(cs.takenIDs, t.ID())
		}
	}
}

// closedClient issues its sequence back to back until the run's time is up.
// With two phase mixes it switches sequence every phaseLen, keeping one
// cursor per phase.
func (r *run) closedClient(c int, cs *clientStats, ctx *opCtx) {
	cursor := make([]int, len(r.in.seqs))
	for {
		now := time.Since(r.t0)
		if now >= r.total() {
			return
		}
		ph := int(now/phaseLen) % len(r.in.seqs)
		seq := r.in.seqs[ph][c]
		o := r.in.rekeyed(&seq[cursor[ph]%len(seq)], cursor[ph]/len(seq))
		cursor[ph]++
		r.issue(cs, ctx, c%machines, &o, now)
	}
}

// pace feeds the open loop's workers: arrival k is due at k/rate whatever
// the system is doing. Every tick it hands over the arrivals that have come
// due, and it closes the channel after the last one.
func (r *run) pace(arrivals chan<- int64) error {
	defer close(arrivals)
	interval := time.Duration(float64(time.Second) / r.in.spec.openRate)
	total := int64(r.in.spec.openRate * r.total().Seconds())
	tk, err := newTicker(interval)
	if err != nil {
		return err
	}
	defer tk.stop()
	for k := int64(0); k < total; {
		if err := tk.wait(); err != nil {
			return fmt.Errorf("open-loop ticker: %w", err)
		}
		for now := time.Since(r.t0); k < total && time.Duration(k)*interval <= now; k++ {
			arrivals <- k
		}
	}
	return nil
}

// openClient issues the arrivals it is handed. An arrival's latency runs
// from the instant it was due, so a stall is charged to every arrival it
// delays, including those that waited for a free worker.
func (r *run) openClient(w int, cs *clientStats, ctx *opCtx, arrivals <-chan int64) {
	interval := time.Duration(float64(time.Second) / r.in.spec.openRate)
	seq := r.in.seqs[0][0]
	n := int64(len(seq))
	for k := range arrivals {
		o := r.in.rekeyed(&seq[k%n], int(k/n))
		r.issue(cs, ctx, w%machines, &o, time.Duration(k)*interval)
	}
}

// drive runs every client to completion; the caller has set r.t0.
func (r *run) drive() error {
	s := r.in.spec
	r.clients = make([]*clientStats, s.clients)
	for c := range r.clients {
		r.clients[c] = &clientStats{
			samples:  make([]sample, 0, 1<<14),
			inserted: make([]int, s.classes),
			taken:    make([]int, s.classes),
		}
	}
	// Arrivals wait here when every worker is busy; their due times are
	// fixed, so the wait is charged to them. Half a second of backlog fits
	// before the pacer itself would block.
	arrivals := make(chan int64, int(s.openRate)/2+1)
	var wg sync.WaitGroup
	var paceErr error
	if s.openRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paceErr = r.pace(arrivals)
		}()
	}
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var ctx *opCtx
			if r.tr != nil {
				ctx = r.tr.register()
				defer r.tr.unregister()
			}
			if s.openRate > 0 {
				r.openClient(c, r.clients[c], ctx, arrivals)
			} else {
				r.closedClient(c, r.clients[c], ctx)
			}
		}(c)
	}
	wg.Wait()
	return paceErr
}

// check applies the correctness rules to a finished run and returns the
// number of violations with a description of each kind found: every result
// matched its template (counted while driving), no tuple was taken twice,
// and at quiescence every member of wg(C) holds exactly preload + inserts −
// takes tuples of class C.
func (r *run) check() (violations int, notes []string) {
	s := r.in.spec
	want := make([]int, s.classes)
	for _, o := range r.in.preload {
		want[o.class]++
	}
	seen := make(map[tuple.ID]struct{})
	dups, wrong := 0, 0
	for _, cs := range r.clients {
		wrong += cs.wrong
		for c := range want {
			want[c] += cs.inserted[c] - cs.taken[c]
		}
		for _, id := range cs.takenIDs {
			if _, dup := seen[id]; dup {
				dups++
			}
			seen[id] = struct{}{}
		}
	}
	if wrong > 0 {
		notes = append(notes, fmt.Sprintf("%d results did not match their template", wrong))
	}
	if dups > 0 {
		notes = append(notes, fmt.Sprintf("%d tuples were taken twice", dups))
	}
	violations = wrong + dups

	// Quiescence: the clients have returned, so every ordered command has
	// been gathered; members still applying a policy join or leave settle
	// within a few milliseconds. Poll rather than sleep a fixed time.
	var bad []string
	deadline := time.Now().Add(3 * time.Second)
	for {
		bad = bad[:0]
		for c, cls := range r.cl.classes {
			members := 0
			for m, mach := range r.cl.machines {
				if !mach.MemberOf(cls) {
					continue
				}
				members++
				if got := mach.ClassLen(cls); got != want[c] {
					bad = append(bad, fmt.Sprintf("class %s on machine %d holds %d tuples, want %d", cls, m+1, got, want[c]))
				}
			}
			if members < lambda+1 {
				bad = append(bad, fmt.Sprintf("class %s has %d members, want at least %d", cls, members, lambda+1))
			}
		}
		if len(bad) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return violations + len(bad), append(notes, bad...)
}
