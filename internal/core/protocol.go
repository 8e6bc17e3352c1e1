package core

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/tuple"
)

// This file implements pasod's line-oriented client protocol: one command
// per line, one response line per command.
//
//	insert <name> <field>...            → OK <tuple> | ERR <msg>
//	read   <name> <matcher>...          → OK <tuple> | FAIL | ERR <msg>
//	take   <name> <matcher>...          → OK <tuple> | FAIL | ERR <msg>
//	readwait <dur> <name> <matcher>...  → OK <tuple> | FAIL | ERR <msg>
//	takewait <dur> <name> <matcher>...  → OK <tuple> | FAIL | ERR <msg>
//	stats                               → OK, then the Figure-1-style
//	                                      per-op table, the gcast completion
//	                                      row (plus the per-class
//	                                      leased-read table when the fast
//	                                      path is enabled), one row per
//	                                      line, terminated by a lone "."
//	                                      line
//	stats -stages                       → OK, then the per-stage latency
//	                                      table (pipeline order), same
//	                                      "." termination
//
// Fields:   i:42   f:2.5   s:text   b:true
// Matchers: the same literals (exact match), ?i ?f ?s ?b (typed
// wildcards), and i:lo..hi / f:lo..hi (ranges).

// BasicPolicyFactory returns a Config.NewPolicy building Basic(K) counters
// (a convenience for pasod and examples).
func BasicPolicyFactory(k int) func(class.ID) adaptive.Policy {
	return func(class.ID) adaptive.Policy {
		p, err := adaptive.NewBasic(k)
		if err != nil {
			return adaptive.Static{}
		}
		return p
	}
}

// ProtocolServer accepts client connections and executes PASO commands on
// a machine.
type ProtocolServer struct {
	ln net.Listener
	m  *Machine
	wg sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
}

// ServeProtocol starts a protocol server for the machine on addr.
func ServeProtocol(addr string, m *Machine) (*ProtocolServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("protocol: listen %s: %w", addr, err)
	}
	s := &ProtocolServer{ln: ln, m: m, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *ProtocolServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes open connections.
func (s *ProtocolServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *ProtocolServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *ProtocolServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		resp := ExecuteCommand(s.m, line)
		fmt.Fprintln(w, resp)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// ExecuteCommand runs one protocol line against a machine and returns the
// response line. Exposed for tests and for embedding the protocol in other
// frontends.
func ExecuteCommand(m *Machine, line string) string {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "ERR empty command"
	}
	switch fields[0] {
	case "insert":
		if len(fields) < 2 {
			return "ERR usage: insert <name> <field>..."
		}
		vals, err := parseValues(fields[2:])
		if err != nil {
			return "ERR " + err.Error()
		}
		all := append([]tuple.Value{tuple.String(fields[1])}, vals...)
		t, err := m.Insert(tuple.Make(all...))
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK " + renderTuple(t)
	case "read", "take":
		tp, err := parseQuery(fields[1:])
		if err != nil {
			return "ERR " + err.Error()
		}
		var t tuple.Tuple
		var ok bool
		if fields[0] == "read" {
			t, ok, err = m.Read(tp)
		} else {
			t, ok, err = m.ReadDel(tp)
		}
		if err != nil {
			return "ERR " + err.Error()
		}
		if !ok {
			return "FAIL"
		}
		return "OK " + renderTuple(t)
	case "readwait", "takewait":
		if len(fields) < 3 {
			return "ERR usage: " + fields[0] + " <duration> <name> <matcher>..."
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return "ERR bad duration: " + err.Error()
		}
		tp, err := parseQuery(fields[2:])
		if err != nil {
			return "ERR " + err.Error()
		}
		var t tuple.Tuple
		if fields[0] == "readwait" {
			t, err = m.ReadWait(tp, d)
		} else {
			t, err = m.ReadDelWait(tp, d)
		}
		if err == ErrTimeout {
			return "FAIL"
		}
		if err != nil {
			return "ERR " + err.Error()
		}
		return "OK " + renderTuple(t)
	case "swap":
		// swap <name> <matcher>... -- <field>...
		sep := -1
		for i, f := range fields {
			if f == "--" {
				sep = i
				break
			}
		}
		if sep < 2 || sep == len(fields)-1 {
			return "ERR usage: swap <name> <matcher>... -- <field>..."
		}
		tp, err := parseQuery(fields[1:sep])
		if err != nil {
			return "ERR " + err.Error()
		}
		vals, err := parseValues(fields[sep+1:])
		if err != nil {
			return "ERR " + err.Error()
		}
		all := append([]tuple.Value{tuple.String(fields[1])}, vals...)
		old, ok, err := m.Swap(tp, tuple.Make(all...))
		if err != nil {
			return "ERR " + err.Error()
		}
		if !ok {
			return "FAIL"
		}
		return "OK " + renderTuple(old)
	case "stats":
		// Multi-line response: the table rows, then a lone "." terminator
		// so line-oriented clients know where it ends. "stats -stages"
		// renders the per-stage latency attribution table instead.
		var sb strings.Builder
		sb.WriteString("OK\n")
		if len(fields) > 1 && fields[1] == "-stages" {
			sb.WriteString(RenderStages(obs.StageSnapshots(m.Obs().Reg())))
		} else {
			sb.WriteString(RenderReport(m.Report()))
			// By rule (PROTOCOL.md, "Completing a gcast"), as counted here:
			fmt.Fprintf(&sb, "gcast completion: local=%d direct=%d gathered=%d\n",
				m.o.Counter("vsync.cast.completed.local").Value(),
				m.o.Counter("vsync.cast.completed.direct").Value(),
				m.o.Counter("vsync.cast.completed.gathered").Value())
			if leased, fallback, _ := m.LeaseStats(); m.cfg.LeasedReads || leased+fallback > 0 {
				sb.WriteString(m.RenderLeaseReport())
			}
		}
		sb.WriteString(".")
		return sb.String()
	default:
		return "ERR unknown command " + fields[0]
	}
}

// parseValues parses i:/f:/s:/b: literals.
func parseValues(fields []string) ([]tuple.Value, error) {
	out := make([]tuple.Value, 0, len(fields))
	for _, f := range fields {
		v, err := parseValue(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseValue(f string) (tuple.Value, error) {
	kv := strings.SplitN(f, ":", 2)
	if len(kv) != 2 {
		return tuple.Value{}, fmt.Errorf("bad field %q (want i:/f:/s:/b:<value>)", f)
	}
	switch kv[0] {
	case "i":
		n, err := strconv.ParseInt(kv[1], 10, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("bad int %q", kv[1])
		}
		return tuple.Int(n), nil
	case "f":
		x, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("bad float %q", kv[1])
		}
		return tuple.Float(x), nil
	case "s":
		return tuple.String(kv[1]), nil
	case "b":
		b, err := strconv.ParseBool(kv[1])
		if err != nil {
			return tuple.Value{}, fmt.Errorf("bad bool %q", kv[1])
		}
		return tuple.Bool(b), nil
	default:
		return tuple.Value{}, fmt.Errorf("unknown field kind %q", kv[0])
	}
}

// parseQuery parses "<name> <matcher>..." into a template whose first
// field pins the name.
func parseQuery(fields []string) (tuple.Template, error) {
	if len(fields) == 0 {
		return tuple.Template{}, fmt.Errorf("missing tuple name")
	}
	ms := make([]tuple.Matcher, 0, len(fields))
	ms = append(ms, tuple.Eq(tuple.String(fields[0])))
	for _, f := range fields[1:] {
		m, err := parseMatcher(f)
		if err != nil {
			return tuple.Template{}, err
		}
		ms = append(ms, m)
	}
	return tuple.NewTemplate(ms...), nil
}

func parseMatcher(f string) (tuple.Matcher, error) {
	switch f {
	case "?i":
		return tuple.Any(tuple.KindInt), nil
	case "?f":
		return tuple.Any(tuple.KindFloat), nil
	case "?s":
		return tuple.Any(tuple.KindString), nil
	case "?b":
		return tuple.Any(tuple.KindBool), nil
	}
	kv := strings.SplitN(f, ":", 2)
	if len(kv) == 2 && strings.Contains(kv[1], "..") {
		bounds := strings.SplitN(kv[1], "..", 2)
		switch kv[0] {
		case "i":
			lo, err1 := strconv.ParseInt(bounds[0], 10, 64)
			hi, err2 := strconv.ParseInt(bounds[1], 10, 64)
			if err1 != nil || err2 != nil {
				return tuple.Matcher{}, fmt.Errorf("bad int range %q", f)
			}
			return tuple.Range(tuple.Int(lo), tuple.Int(hi)), nil
		case "f":
			lo, err1 := strconv.ParseFloat(bounds[0], 64)
			hi, err2 := strconv.ParseFloat(bounds[1], 64)
			if err1 != nil || err2 != nil {
				return tuple.Matcher{}, fmt.Errorf("bad float range %q", f)
			}
			return tuple.Range(tuple.Float(lo), tuple.Float(hi)), nil
		}
	}
	v, err := parseValue(f)
	if err != nil {
		return tuple.Matcher{}, err
	}
	return tuple.Eq(v), nil
}

// renderTuple prints a tuple in protocol field syntax.
func renderTuple(t tuple.Tuple) string {
	parts := make([]string, 0, t.Arity()+1)
	parts = append(parts, "id="+t.ID().String())
	for i := 0; i < t.Arity(); i++ {
		v := t.Field(i)
		switch v.Kind() {
		case tuple.KindInt:
			parts = append(parts, "i:"+strconv.FormatInt(v.MustInt(), 10))
		case tuple.KindFloat:
			parts = append(parts, "f:"+strconv.FormatFloat(v.MustFloat(), 'g', -1, 64))
		case tuple.KindString:
			parts = append(parts, "s:"+v.MustString())
		case tuple.KindBool:
			parts = append(parts, "b:"+strconv.FormatBool(v.MustBool()))
		default:
			parts = append(parts, "bytes")
		}
	}
	return strings.Join(parts, " ")
}
