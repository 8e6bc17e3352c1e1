package core

import (
	"time"

	"paso/internal/tuple"
)

// BlockStrategy selects how blocking reads wait for a match (§4.3).
type BlockStrategy int

// Blocking strategies.
const (
	// BlockBusyWait re-issues the non-blocking read on a poll interval,
	// "busy-wait while cycling among the classes".
	BlockBusyWait BlockStrategy = iota + 1
	// BlockMarker leaves read-message markers at the class's servers and
	// sleeps until a matching insert fires one. Markers are soft state:
	// if every marker-holding replica crashes the wakeup is lost, so pure
	// markers trade messages for a liveness assumption.
	BlockMarker
	// BlockHybrid places markers but also polls at a slow fallback rate
	// ("read-markers are left and then expired"), getting marker latency
	// with busy-wait robustness.
	BlockHybrid
)

// String names the strategy.
func (s BlockStrategy) String() string {
	switch s {
	case BlockBusyWait:
		return "busy-wait"
	case BlockMarker:
		return "marker"
	case BlockHybrid:
		return "hybrid"
	default:
		return "invalid"
	}
}

// ReadWait is the blocking read: it returns a matching live object,
// waiting up to timeout for one to be inserted. A timeout ≤ 0 means a
// single non-blocking attempt.
func (m *Machine) ReadWait(tp tuple.Template, timeout time.Duration, strat BlockStrategy) (tuple.Tuple, error) {
	return m.blockOn(tp, timeout, strat, func() (tuple.Tuple, bool, error) {
		return m.Read(tp)
	})
}

// ReadDelWait is the blocking read&del. Markers wake the caller when a
// candidate appears; the removal itself stays a competitive gcast, so two
// blocked removers racing for one tuple leave one of them waiting again
// (the paper notes markers for read&del are subtler — this retry loop is
// the resolution).
func (m *Machine) ReadDelWait(tp tuple.Template, timeout time.Duration, strat BlockStrategy) (tuple.Tuple, error) {
	return m.blockOn(tp, timeout, strat, func() (tuple.Tuple, bool, error) {
		return m.ReadDel(tp)
	})
}

// blockOn implements the three waiting strategies around one non-blocking
// attempt function.
func (m *Machine) blockOn(tp tuple.Template, timeout time.Duration, strat BlockStrategy,
	attempt func() (tuple.Tuple, bool, error)) (tuple.Tuple, error) {

	deadline := time.Now().Add(timeout)
	for {
		obj, ok, err := attempt()
		if err != nil {
			return tuple.Tuple{}, err
		}
		if ok {
			return obj, nil
		}
		if timeout <= 0 || !time.Now().Before(deadline) {
			return tuple.Tuple{}, ErrTimeout
		}
		switch strat {
		case BlockMarker, BlockHybrid:
			// Register interest, grab the wake barrier, and re-check once
			// before sleeping (an insert between attempt() and the marker
			// placement would otherwise be missed... the marker itself
			// closes that window: it is ordered after the insert, so the
			// retry below sees the tuple).
			wake := m.wakeChan()
			if err := m.placeMarkers(tp); err != nil {
				return tuple.Tuple{}, err
			}
			fallback := m.cfg.MarkerFallback
			if strat == BlockMarker || fallback <= 0 {
				fallback = timeout // pure markers: only the deadline polls
			}
			select {
			case <-wake:
			case <-time.After(minDur(fallback, time.Until(deadline))):
			case <-m.stopped:
				return tuple.Tuple{}, ErrMachineDown
			}
		default: // BlockBusyWait
			select {
			case <-time.After(minDur(m.cfg.PollInterval, time.Until(deadline))):
			case <-m.stopped:
				return tuple.Tuple{}, ErrMachineDown
			}
		}
	}
}

// placeMarkers gcasts a marker registration to the write group of every
// class in the template's search list.
func (m *Machine) placeMarkers(tp tuple.Template) error {
	for _, cls := range m.cfg.Classifier.SearchList(tp) {
		payload := encodeCommand(&command{kind: cmdMark, class: cls, tpl: tp})
		if _, err := m.node.Gcast(m.groupsOf(cls).wg, payload); err != nil {
			return err
		}
	}
	return nil
}

func minDur(a, b time.Duration) time.Duration {
	if b > 0 && b < a {
		return b
	}
	return a
}
