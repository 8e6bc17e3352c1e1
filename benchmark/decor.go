package main

import (
	"sync/atomic"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
	"paso/internal/tuple"
)

// timing aggregates every call through one decorator: how many, and how
// long. Each decorator owns its own, so the machines do not contend for one
// set of counters; the per-layer report merges them.
type timing struct {
	hist  *obs.Histogram
	calls atomic.Int64
}

func newTiming() *timing { return &timing{hist: obs.NewHistogram()} }

// observe records one call and reports whether it is the one in sampleEvery
// whose span a background decorator keeps.
func (t *timing) observe(start, end time.Time) (keep bool) {
	t.hist.Observe(end.Sub(start).Seconds())
	return t.calls.Add(1)%sampleEvery == 0
}

// merged folds several decorators' timings into one histogram snapshot.
func merged(ts ...*timing) obs.HistSnapshot {
	all := obs.NewHistogram()
	for _, t := range ts {
		all.Merge(t.hist)
	}
	return all.Snapshot()
}

// tracedEndpoint times and counts the sends a machine hands its transport.
// It overrides both send paths and inherits everything else, so the node
// above it still finds transport.OwnedSender and keeps the pooled-buffer
// path; a decorator offering only Send would silently move the traced run
// onto the copying path.
//
// Sends happen on the machine's own goroutines, never on a client's, so
// their spans are background spans. The receive side is not wrapped: Recv
// hands out a channel, and timing it would mean pumping every frame through
// an extra goroutine, which the traced run would then be measuring. Received
// frames are counted from the transport's own counters instead.
type tracedEndpoint struct {
	*tcp.Endpoint
	tr   *tracer
	m    int
	send *timing
	// Wire frames and payload bytes handed to peers; sends to self
	// short-circuit the socket and are not frames.
	frames, bytes atomic.Int64
}

var (
	_ transport.Endpoint    = (*tracedEndpoint)(nil)
	_ transport.OwnedSender = (*tracedEndpoint)(nil)
)

func (e *tracedEndpoint) sent(to transport.NodeID, n int, start time.Time) {
	end := time.Now()
	if e.send.observe(start, end) {
		e.tr.background(spanSend, e.m, start, end)
	}
	if to != e.ID() {
		e.frames.Add(1)
		e.bytes.Add(int64(n))
	}
}

func (e *tracedEndpoint) Send(to transport.NodeID, payload []byte) error {
	start := time.Now()
	err := e.Endpoint.Send(to, payload)
	e.sent(to, len(payload), start)
	return err
}

func (e *tracedEndpoint) SendOwned(to transport.NodeID, payload []byte) error {
	n := len(payload) // the endpoint owns the buffer once SendOwned is entered
	start := time.Now()
	err := e.Endpoint.SendOwned(to, payload)
	e.sent(to, n, start)
	return err
}

// tracedClassifier times the two classifier calls, which a machine makes on
// the client's goroutine, and tallies search-list lengths.
type tracedClassifier struct {
	class.Classifier
	tr              *tracer
	m               int
	classOf, search *timing
	listLen         atomic.Int64
}

func (c *tracedClassifier) ClassOf(t tuple.Tuple) class.ID {
	start := time.Now()
	id := c.Classifier.ClassOf(t)
	end := time.Now()
	c.classOf.observe(start, end)
	c.tr.child(spanClassOf, c.m, start, end)
	return id
}

func (c *tracedClassifier) SearchList(tp tuple.Template) []class.ID {
	start := time.Now()
	list := c.Classifier.SearchList(tp)
	end := time.Now()
	c.search.observe(start, end)
	c.tr.child(spanSearchList, c.m, start, end)
	c.listLen.Add(int64(len(list)))
	return list
}

// pairCount tallies the policy decisions of one (machine, class) pair.
type pairCount struct{ joins, leaves atomic.Int64 }

// tracedPolicy times a (machine, class) policy and counts its decisions to
// join and to leave. LocalRead runs on the reading client's goroutine, Update
// on the machine's delivery path. The machine serialises calls into a
// policy, so only what is read from outside is atomic. Decisions repeat
// while the membership change they ask for is in flight; a run of equal
// decisions counts once, which is when the machine acts on it. It forwards
// neither adaptive.Thresholded nor adaptive.CostAware: Basic is not
// cost-aware, and the threshold only annotates the machine's trace events.
type tracedPolicy struct {
	adaptive.Policy
	tr       *tracer
	m        int
	decide   *timing    // shared by the machine's policies
	pair     *pairCount // nil for basic support, which never moves
	joining  bool
	quitting bool
}

func (p *tracedPolicy) LocalRead(member bool, rgSize int) adaptive.Decision {
	start := time.Now()
	d := p.Policy.LocalRead(member, rgSize)
	end := time.Now()
	p.decide.observe(start, end)
	p.tr.child(spanLocalRead, p.m, start, end)
	join := d == adaptive.Join && !member
	if join && !p.joining && p.pair != nil {
		p.pair.joins.Add(1)
	}
	p.joining = join
	return d
}

func (p *tracedPolicy) Update(member bool) adaptive.Decision {
	start := time.Now()
	d := p.Policy.Update(member)
	end := time.Now()
	if p.decide.observe(start, end) {
		p.tr.background(spanUpdate, p.m, start, end)
	}
	quit := d == adaptive.Leave
	if quit && !p.quitting && p.pair != nil {
		p.pair.leaves.Add(1)
	}
	p.quitting = quit
	return d
}

// decorators holds what the traced run's hooks created, for the per-layer
// report to read once the run has ended.
type decorators struct {
	endpoints   []*tracedEndpoint
	classifiers []*tracedClassifier
	decide      []*timing // per machine
	// pairs[m][c] is non-nil for the (machine, class) pairs that are not
	// basic support, the only ones a policy can move.
	pairs [][]*pairCount
}

// newDecorators builds the traced run's hooks.
func newDecorators(tr *tracer, classes int) (*decorators, hooks) {
	d := &decorators{
		endpoints:   make([]*tracedEndpoint, machines),
		classifiers: make([]*tracedClassifier, machines),
		decide:      make([]*timing, machines),
		pairs:       make([][]*pairCount, machines),
	}
	for m := range d.pairs {
		d.pairs[m] = make([]*pairCount, classes)
		d.decide[m] = newTiming()
	}
	hk := hooks{
		endpoint: func(m int, ep *tcp.Endpoint) transport.Endpoint {
			d.endpoints[m] = &tracedEndpoint{Endpoint: ep, tr: tr, m: m, send: newTiming()}
			return d.endpoints[m]
		},
		classifier: func(m int, c class.Classifier) class.Classifier {
			d.classifiers[m] = &tracedClassifier{Classifier: c, tr: tr, m: m, classOf: newTiming(), search: newTiming()}
			return d.classifiers[m]
		},
		// Policies are created lazily under the machine's policy lock, one
		// per (machine, class), so each slot of pairs is written once.
		policy: func(m, c int, basic bool, p adaptive.Policy) adaptive.Policy {
			tp := &tracedPolicy{Policy: p, tr: tr, m: m, decide: d.decide[m]}
			if !basic {
				tp.pair = &pairCount{}
				d.pairs[m][c] = tp.pair
			}
			return tp
		},
	}
	return d, hk
}
