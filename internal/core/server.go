package core

import (
	"encoding/binary"
	"sync"
	"time"

	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
	"paso/internal/vsync"
)

// server is the memory server residing on a machine (§4.2): it owns the
// per-class stores, applies the totally ordered store/mem-read/remove
// commands, serves state transfers for g-join, and fires read markers.
//
// All vsync.Handler callbacks arrive on the node's event loop; the mutex
// protects against concurrent local reads from compute processes.
type server struct {
	cfg Config

	mu      sync.Mutex
	classes map[class.ID]*classState
	markers map[class.ID][]marker

	// onUpdate is called (outside the lock) after an insert or remove is
	// applied to a class this machine replicates; the machine layer runs
	// the adaptive policy's decay step there. Never nil.
	onUpdate func(cls class.ID)
	// notify wakes a remote blocked reader (marker fired). Never nil.
	notify func(to transport.NodeID)
	// hStageApply times the storage mutation inside Deliver (the
	// store-apply stage of the per-stage latency attribution).
	hStageApply *obs.Histogram
	// gMarkers counts the markers parked over all classes.
	gMarkers *obs.Gauge
}

// classState is the replica state for one object class.
type classState struct {
	store   storage.Store
	arrival uint64 // total-order arrival index for FIFO-oldest removal
}

// marker is a parked blocked-read registration (§4.3), a lease its waiter
// refreshes on every poll. One waiter's marker is keyed by its origin and
// its command encoding, which within a class is the template's encoding.
type marker struct {
	origin  transport.NodeID
	key     string
	tpl     tuple.Template
	expires time.Time
}

var _ vsync.Handler = (*server)(nil)

func newServer(cfg Config, o *obs.Obs, onUpdate func(class.ID), notify func(transport.NodeID)) *server {
	return &server{
		cfg:         cfg,
		classes:     make(map[class.ID]*classState),
		markers:     make(map[class.ID][]marker),
		onUpdate:    onUpdate,
		notify:      notify,
		hStageApply: o.Histogram(obs.StageStoreApply),
		gMarkers:    o.Gauge("core.markers"),
	}
}

// stateFor returns (creating if needed) the replica state for a class.
// Callers hold s.mu.
func (s *server) stateFor(cls class.ID) *classState {
	cs, ok := s.classes[cls]
	if !ok {
		st, err := storage.New(s.cfg.StoreKind, s.cfg.TreeKeyField)
		if err != nil {
			// Config is validated at cluster construction; an invalid
			// kind here is a programmer error.
			panic(err)
		}
		cs = &classState{store: st}
		s.classes[cls] = cs
	}
	return cs
}

// Deliver implements vsync.Handler: apply one ordered command.
func (s *server) Deliver(group string, origin transport.NodeID, payload []byte) ([]byte, bool) {
	kind, cls, ok := parseGroup(group)
	if !ok {
		return nil, true
	}
	// Alias decode: payload is a transport receive frame, immutable under
	// the delivery ownership contract (vsync.Handler.Deliver), so a stored
	// tuple's fields keep pointing into the frame — zero copies between
	// socket and store. The command itself lives on this stack frame.
	var cmd command
	if err := cmd.decode(payload, true); err != nil {
		return nil, true
	}
	applyStart := time.Now()
	defer func() { s.hStageApply.Observe(time.Since(applyStart).Seconds()) }()
	switch cmd.kind {
	case cmdStore:
		if kind != "wg" {
			return nil, true // inserts only flow through write groups
		}
		s.applyStore(cls, cmd.obj)
		s.onUpdate(cls)
		return encodeResponse(&response{ok: true, probes: 1}), false
	case cmdRead:
		r := s.applyRead(cls, cmd.tpl)
		return encodeResponse(r), !r.ok
	case cmdRemove:
		if kind != "wg" {
			return nil, true
		}
		r := s.applyRemove(cls, cmd.tpl)
		s.onUpdate(cls)
		return encodeResponse(r), !r.ok
	case cmdMark:
		s.placeMarker(cls, cmd.tpl, origin, payload)
		return encodeResponse(&response{ok: true}), false
	case cmdSwap:
		if kind != "wg" {
			return nil, true
		}
		r, fired := s.applySwap(cls, cmd.tpl, cmd.obj)
		for _, to := range fired {
			s.notify(to)
		}
		s.onUpdate(cls)
		return encodeResponse(r), !r.ok
	default:
		return nil, true
	}
}

// applySwap atomically removes the oldest match and, only if one existed,
// stores the replacement (the Bakken–Schlichting tuple-swap the paper's
// related work cites for building reliable bag-of-task applications).
// Being one ordered command, no other operation can interleave between
// the removal and the insertion on any replica.
func (s *server) applySwap(cls class.ID, tp tuple.Template, repl tuple.Tuple) (*response, []transport.NodeID) {
	s.mu.Lock()
	cs := s.stateFor(cls)
	before := cs.store.Stats().RemoveProbes
	old, ok := cs.store.Remove(tp)
	probes := cs.store.Stats().RemoveProbes - before
	var fired []transport.NodeID
	if ok {
		cs.arrival++
		cs.store.Insert(cs.arrival, repl)
		fired = s.fireMarkers(cls, repl)
	}
	s.mu.Unlock()
	return &response{ok: ok, obj: old, probes: uint32(probes)}, fired
}

func (s *server) applyStore(cls class.ID, t tuple.Tuple) {
	s.mu.Lock()
	cs := s.stateFor(cls)
	cs.arrival++
	cs.store.Insert(cs.arrival, t)
	fired := s.fireMarkers(cls, t)
	s.mu.Unlock()
	for _, to := range fired {
		s.notify(to)
	}
}

func (s *server) applyRead(cls class.ID, tp tuple.Template) *response {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok, probes := s.stateFor(cls).read(tp)
	return &response{ok: ok, obj: t, probes: uint32(probes)}
}

// read looks one template up and counts the probes it took. Callers hold
// the server's lock.
func (cs *classState) read(tp tuple.Template) (tuple.Tuple, bool, int) {
	before := cs.store.Stats().ReadProbes
	t, ok := cs.store.Read(tp)
	return t, ok, int(cs.store.Stats().ReadProbes - before)
}

func (s *server) applyRemove(cls class.ID, tp tuple.Template) *response {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.stateFor(cls)
	before := cs.store.Stats().RemoveProbes
	t, ok := cs.store.Remove(tp)
	probes := cs.store.Stats().RemoveProbes - before
	return &response{ok: ok, obj: t, probes: uint32(probes)}
}

// leaseRead serves one epoch-fenced leased read from the local replica
// (vsync.LeaseReader; the epoch check already happened in the group
// layer). Only write groups are served: rg groups carry no state and a
// wg member's store reflects every completed write, which is what makes
// the lease answer safe under a stable view. Called from the vsync event
// loop; applyRead only takes the short store mutex.
func (s *server) leaseRead(group string, payload []byte) ([]byte, bool) {
	kind, cls, ok := parseGroup(group)
	if !ok || kind != "wg" {
		return nil, true
	}
	var cmd command
	if err := cmd.decode(payload, true); err != nil || cmd.kind != cmdRead {
		return nil, true
	}
	r := s.applyRead(cls, cmd.tpl)
	return encodeResponse(r), !r.ok
}

// localRead serves a compute process on this machine directly from the
// local replica (the zero-message path of §4.3). held=false reports that
// the class is not replicated here: the caller tested membership before the
// store lock, and an Evict may have landed in between. Unlike the delivery
// path it never creates class state — an empty replica minted here would
// answer "no match" for tuples that are live in wg(C).
func (s *server) localRead(cls class.ID, tp tuple.Template) (t tuple.Tuple, ok bool, probes int, held bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, held := s.classes[cls]
	if held {
		t, ok, probes = cs.read(tp)
	}
	return t, ok, probes, held
}

// placeMarker parks a blocked read, or refreshes the lease of the one its
// waiter parked before. Markers are per-replica soft state: they are not
// part of g-join state transfer, and a marker its waiter stopped refreshing
// expires, so a waiter that timed out or crashed leaves nothing behind.
// Expiry is checked here and when markers fire; a placement sweeps every
// class.
func (s *server) placeMarker(cls class.ID, tp tuple.Template, origin transport.NodeID, cmd []byte) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.markers {
		s.keepMarkers(c, now, nil)
	}
	expires := now.Add(markerTTL)
	ms := s.markers[cls]
	for i := range ms {
		if ms[i].origin == origin && ms[i].key == string(cmd) {
			ms[i].expires = expires
			return
		}
	}
	s.markers[cls] = append(ms, marker{origin: origin, key: string(cmd), tpl: tp, expires: expires})
	s.gMarkers.Add(1)
}

// fireMarkers returns the origins whose live markers match the new tuple
// and removes them with the expired ones. An insert into a class with no
// marker does no work. Callers hold s.mu.
func (s *server) fireMarkers(cls class.ID, t tuple.Tuple) []transport.NodeID {
	if len(s.markers[cls]) == 0 {
		return nil
	}
	var fired []transport.NodeID
	s.keepMarkers(cls, time.Now(), func(m marker) bool {
		if m.tpl.Matches(t) {
			fired = append(fired, m.origin)
			return true
		}
		return false
	})
	return fired
}

// keepMarkers removes a class's expired markers and those fire, when not
// nil, reports fired. Callers hold s.mu.
func (s *server) keepMarkers(cls class.ID, now time.Time, fire func(marker) bool) {
	ms := s.markers[cls]
	kept := ms[:0]
	for _, m := range ms {
		if now.Before(m.expires) && (fire == nil || !fire(m)) {
			kept = append(kept, m)
		}
	}
	clear(ms[len(kept):])
	if len(kept) == 0 {
		delete(s.markers, cls)
	} else {
		s.markers[cls] = kept
	}
	s.gMarkers.Add(int64(len(kept) - len(ms)))
}

// Snapshot implements vsync.Handler: serialize a class replica for g-join
// state transfer (time O(ℓ), §5: "copy the memory containing the data
// structure"). Read groups carry no state of their own — their members are
// write-group members already — so rg snapshots are empty.
func (s *server) Snapshot(group string) []byte {
	kind, cls, ok := parseGroup(group)
	if !ok || kind == "rg" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, exists := s.classes[cls]
	if !exists {
		return nil
	}
	entries := cs.store.Snapshot()
	out := make([]byte, 0, 16+len(entries)*64)
	out = binary.LittleEndian.AppendUint64(out, cs.arrival)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, e.Seq)
		tb := tuple.EncodeTuple(e.Tuple)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(tb)))
		out = append(out, tb...)
	}
	return out
}

// Install implements vsync.Handler: replace a class replica with a
// snapshot.
func (s *server) Install(group string, state []byte) {
	kind, cls, ok := parseGroup(group)
	if !ok || kind == "rg" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.stateFor(cls)
	if len(state) < 12 {
		cs.arrival = 0
		cs.store.Restore(nil)
		return
	}
	arrival := binary.LittleEndian.Uint64(state[0:8])
	count := int(binary.LittleEndian.Uint32(state[8:12]))
	off := 12
	entries := make([]storage.Entry, 0, count)
	for i := 0; i < count; i++ {
		if off+12 > len(state) {
			break
		}
		seq := binary.LittleEndian.Uint64(state[off : off+8])
		n := int(binary.LittleEndian.Uint32(state[off+8 : off+12]))
		off += 12
		if off+n > len(state) {
			break
		}
		t, err := tuple.DecodeTuple(state[off : off+n])
		off += n
		if err != nil {
			continue
		}
		entries = append(entries, storage.Entry{Seq: seq, Tuple: t})
	}
	cs.arrival = arrival
	cs.store.Restore(entries)
}

// Evict implements vsync.Handler: erase a class replica after leaving its
// write group (§4.2: "servers should erase all information when leaving").
func (s *server) Evict(group string) {
	kind, cls, ok := parseGroup(group)
	if !ok || kind == "rg" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.classes, cls)
	s.gMarkers.Add(-int64(len(s.markers[cls])))
	delete(s.markers, cls)
}

// ViewChange implements vsync.Handler. Group sizes come from gcast reply
// piggybacks, so the membership is not recorded; the call only makes sure a
// write group this machine belongs to has replica state, which a first
// member (activated with no snapshot to install) would lack until the first
// write — and localRead takes missing state to mean "evicted". No view
// change is reported for a group this machine left: it cannot undo an Evict.
func (s *server) ViewChange(group string, _ []transport.NodeID) {
	if kind, cls, ok := parseGroup(group); ok && kind == "wg" {
		s.mu.Lock()
		s.stateFor(cls)
		s.mu.Unlock()
	}
}

// AppMessage implements vsync.Handler; the machine layer overrides routing
// by wrapping the server (see machine.go). The server itself never
// receives app messages.
func (s *server) AppMessage(transport.NodeID, []byte) {}

// classLen returns the live-object count for a class (ℓ in §5).
func (s *server) classLen(cls class.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.classes[cls]
	if !ok {
		return 0
	}
	return cs.store.Len()
}
