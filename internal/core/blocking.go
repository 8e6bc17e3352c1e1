package core

import (
	"time"

	"paso/internal/tuple"
)

// blockPoll is the blocking wait's slow poll. Markers wake a waiter as soon
// as a matching insert is applied; the poll re-reads and re-parks markers
// in case every marker holder lost them (markers are soft state) or the
// insert landed between the read and the marker.
const blockPoll = 50 * time.Millisecond

// markerTTL is how long a parked marker lives unless its waiter refreshes
// it: two polls, so one late refresh does not drop it ("read-markers are
// left and then expired", §4.3).
const markerTTL = 2 * blockPoll

// ReadWait is the blocking read: it returns a matching live object,
// waiting up to timeout for one to be inserted. A timeout ≤ 0 means a
// single non-blocking attempt.
func (m *Machine) ReadWait(tp tuple.Template, timeout time.Duration) (tuple.Tuple, error) {
	return m.blockOn(tp, timeout, func() (tuple.Tuple, bool, error) {
		return m.Read(tp)
	})
}

// ReadDelWait is the blocking read&del. Markers wake the caller when a
// candidate appears; the removal itself stays a competitive gcast, so two
// blocked removers racing for one tuple leave one of them waiting again
// (the paper notes markers for read&del are subtler — this retry loop is
// the resolution).
func (m *Machine) ReadDelWait(tp tuple.Template, timeout time.Duration) (tuple.Tuple, error) {
	return m.blockOn(tp, timeout, func() (tuple.Tuple, bool, error) {
		return m.ReadDel(tp)
	})
}

// blockOn is the one blocking wait (§4.3) around a non-blocking attempt:
// after each miss it parks (or refreshes) read markers at the servers of
// every class the template searches, then sleeps until a marker fires, the
// slow poll elapses, the machine stops or the deadline passes.
func (m *Machine) blockOn(tp tuple.Template, timeout time.Duration,
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
		// Take the wake barrier before parking, so a marker that fires
		// while the gcast is in flight still releases this wait.
		wake := m.wakeChan()
		if err := m.placeMarkers(tp); err != nil {
			return tuple.Tuple{}, err
		}
		select {
		case <-wake:
		case <-time.After(min(blockPoll, time.Until(deadline))):
		case <-m.stopped:
			return tuple.Tuple{}, ErrMachineDown
		}
	}
}

// placeMarkers gcasts a marker registration to the write group of every
// class in the template's search list. A server keys markers by origin and
// template, so the gcast of each poll refreshes the one already parked.
func (m *Machine) placeMarkers(tp tuple.Template) error {
	for _, cls := range m.cfg.Classifier.SearchList(tp) {
		payload := encodeCommand(&command{kind: cmdMark, class: cls, tpl: tp})
		if _, err := m.node.Gcast(m.groupsOf(cls).wg, payload); err != nil {
			return err
		}
	}
	return nil
}
