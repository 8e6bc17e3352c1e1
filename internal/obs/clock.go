package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Coarse clock: a ticker-advanced wall clock for hot-path stage
// timestamps. The PR 7 saturation profile showed ~8% of one-core CPU in
// time.Now, almost all of it from the per-event stage-latency
// instrumentation (client-queue enqueue, order staging, delivery) — sites
// that measure queue crossings in the 0.5–50ms range, where a sub-
// millisecond-resolution cached clock is indistinguishable from the real
// one. CoarseNow trades resolution for cost: a single atomic load instead
// of a vDSO call, advanced every coarseTick by one background goroutine.
//
// Precision-sensitive sites must NOT use it: the benchmark's open-loop
// latencies, measured from each operation's due time, and the in-thread
// microsecond stages (encode, socket write, store apply) keep calling
// time.Now, so their accuracy is unchanged — the coarse clock's error
// (≤ coarseTick, well under the histogram's own 4.4% bucket error at
// queue-crossing scales) lands only on stages measured in
// milliseconds.
const coarseTick = 250 * time.Microsecond

var (
	coarseOnce  sync.Once
	coarseNanos atomic.Int64
)

// coarseStart launches the advancing goroutine on first use, so processes
// that never touch the coarse clock (tests, pasoctl) pay nothing.
func coarseStart() {
	coarseNanos.Store(time.Now().UnixNano())
	go func() {
		for {
			time.Sleep(coarseTick)
			coarseNanos.Store(time.Now().UnixNano())
		}
	}()
}

// CoarseNow returns the cached wall clock, at most coarseTick stale. The
// returned Time carries no monotonic reading; measure elapsed time against
// it with CoarseSince (or Sub against another CoarseNow), never by mixing
// with monotonic time.Now values.
func CoarseNow() time.Time {
	coarseOnce.Do(coarseStart)
	return time.Unix(0, coarseNanos.Load())
}

// CoarseSince returns the elapsed wall time since t per the coarse clock.
// Staleness can make the result negative by up to coarseTick when t was
// just taken from the real clock; callers observing into histograms can
// pass it through unchanged — bucket 0 absorbs non-positive values.
func CoarseSince(t time.Time) time.Duration {
	coarseOnce.Do(coarseStart)
	return time.Duration(coarseNanos.Load() - t.UnixNano())
}
