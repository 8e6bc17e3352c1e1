package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a seam the benchmark can see from outside:
// a client operation, or a call the cluster made into a decorated part.
// Operation spans are roots (Parent 0, Op equal to their own ID). Calls made
// on the client's goroutine hang off the operation that made them; calls
// made on the cluster's own goroutines (sends, policy updates) cannot be
// tied to one operation and hang off their machine's root instead, Op 0.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	Machine int    `json:"machine"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Span names. The first three are indexed by opKind.
const (
	spanOpInsert = iota
	spanOpRead
	spanOpReadDel
	spanClassOf
	spanSearchList
	spanLocalRead
	spanUpdate
	spanSend
	spanMachine
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.insert", "op.read", "op.read&del",
	"class.classof", "class.searchlist",
	"adaptive.local_read", "adaptive.update",
	"tcp.send", "machine",
}

// sampleEvery thins the spans that are kept: one operation in sampleEvery
// keeps its span and its children, and one background call in sampleEvery
// keeps its span. A saturated window makes millions of calls; keeping them
// all would cost more than the calls themselves. Counts and durations of
// every call, kept or not, are aggregated by the decorators.
const sampleEvery = 128

// opCtx is a client goroutine's tracing state. Only that goroutine touches
// it: decorators reach it through the goroutine's ID, on the same goroutine.
type opCtx struct {
	cur uint64 // the kept operation in flight, 0 otherwise
}

// tracer keeps spans in memory for one traced run. Span timestamps count
// from t0, its creation, which precedes the cluster's set-up.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	ctxs   sync.Map // goroutine ID → *opCtx
	// hot[m] counts the kept operations in flight on machine m. A decorator
	// on a client goroutine looks its operation up only while it is
	// non-zero, which spares the other calls the price of goid.
	hot [machines]atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.nextID.Store(machines) // IDs 1..machines are the machine roots
	return tr
}

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:"). The Machine API takes no context and Go has
// no goroutine-local storage, so this is the only way a decorator invoked
// deep inside Machine.Read can learn which client operation it serves. It
// costs microseconds, hence the hot counters above.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// register creates the calling client goroutine's context.
func (tr *tracer) register() *opCtx {
	ctx := &opCtx{}
	tr.ctxs.Store(goid(), ctx)
	return ctx
}

func (tr *tracer) unregister() { tr.ctxs.Delete(goid()) }

// beginOp numbers the operation the client on machine m is about to issue
// and decides whether its spans are kept.
func (tr *tracer) beginOp(ctx *opCtx, m int) {
	if id := tr.nextID.Add(1); id%sampleEvery == 0 {
		ctx.cur = id
		tr.hot[m].Add(1)
	}
}

// endOp closes a kept operation's root span; start and end count from t0.
func (tr *tracer) endOp(ctx *opCtx, kind opKind, m int, start, end time.Duration) {
	if ctx.cur == 0 {
		return
	}
	tr.hot[m].Add(-1)
	tr.keep(span{ID: ctx.cur, Op: ctx.cur, Name: spanNames[kind], Machine: m + 1,
		StartNs: int64(start), EndNs: int64(end)})
	ctx.cur = 0
}

// child keeps a span for a call made on a client goroutine of machine m, if
// that goroutine's operation in flight is a kept one.
func (tr *tracer) child(name, m int, start, end time.Time) {
	if tr.hot[m].Load() == 0 {
		return
	}
	v, ok := tr.ctxs.Load(goid())
	if !ok || v.(*opCtx).cur == 0 {
		return
	}
	op := v.(*opCtx).cur
	tr.keep(span{ID: tr.nextID.Add(1), Parent: op, Op: op, Name: spanNames[name], Machine: m + 1,
		StartNs: int64(start.Sub(tr.t0)), EndNs: int64(end.Sub(tr.t0))})
}

// background keeps a span for a call made on one of machine m's own
// goroutines; it hangs off the machine's root.
func (tr *tracer) background(name, m int, start, end time.Time) {
	tr.keep(span{ID: tr.nextID.Add(1), Parent: uint64(m + 1), Name: spanNames[name], Machine: m + 1,
		StartNs: int64(start.Sub(tr.t0)), EndNs: int64(end.Sub(tr.t0))})
}

func (tr *tracer) keep(sp span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// finish adds the machine roots, spanning the tracer's whole life, and
// returns every kept span ordered by start time.
func (tr *tracer) finish() []span {
	end := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for m := 1; m <= machines; m++ {
		tr.spans = append(tr.spans, span{ID: uint64(m), Name: spanNames[spanMachine], Machine: m, EndNs: int64(end)})
	}
	sort.SliceStable(tr.spans, func(i, j int) bool { return tr.spans[i].StartNs < tr.spans[j].StartNs })
	return tr.spans
}

// selfTimes returns, for every span, its duration minus the part of it that
// its child spans cover. Children may overlap each other and may stick out
// of the parent; only the union of their intervals inside the parent counts.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, sp := range spans {
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, upTo := int64(0), sp.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, upTo), min(k.EndNs, sp.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[sp.ID] = sp.EndNs - sp.StartNs - covered
	}
	return self
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadSpans reads a file written by writeSpans.
func loadSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			return nil, fmt.Errorf("%s: span %d: %w", path, len(spans)+1, err)
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

// checkRoots verifies the shape the trace file promises: every span's parent
// is in the file, and every operation has exactly one root.
func checkRoots(spans []span) error {
	present := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	roots := make(map[uint64]int)
	for _, sp := range spans {
		if sp.Parent != 0 {
			if !present[sp.Parent] {
				return fmt.Errorf("span %d (%s): parent %d is not in the trace", sp.ID, sp.Name, sp.Parent)
			}
			continue
		}
		if sp.Op != 0 {
			roots[sp.Op]++
		}
	}
	for _, sp := range spans {
		if sp.Op != 0 && roots[sp.Op] != 1 {
			return fmt.Errorf("operation %d has %d root spans, want 1", sp.Op, roots[sp.Op])
		}
	}
	return nil
}
