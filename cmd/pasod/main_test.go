package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/transport"
	"paso/internal/tuple"
)

func TestParsePeers(t *testing.T) {
	got, err := parsePeers("2=127.0.0.1:7102, 3=host:7103")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[2] != "127.0.0.1:7102" || got[3] != "host:7103" {
		t.Fatalf("got %v", got)
	}
	if _, err := parsePeers("nope"); err == nil {
		t.Error("missing = accepted")
	}
	if _, err := parsePeers("x=addr"); err == nil {
		t.Error("non-numeric id accepted")
	}
	if _, err := parsePeers("0=addr"); err == nil {
		t.Error("zero id accepted")
	}
	empty, err := parsePeers("")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty peers: %v %v", empty, err)
	}
	_ = transport.NodeID(0)
}

func TestSplitNames(t *testing.T) {
	got := splitNames(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if got := splitNames(""); got != nil {
		t.Errorf("empty names = %v", got)
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -id accepted")
	}
	if err := run([]string{"-id", "1", "-peers", "bogus"}); err == nil {
		t.Error("bad peers accepted")
	}
	if err := run([]string{"-id", "1", "-support"}); err == nil {
		t.Error("the removed -support flag accepted")
	}
	if _, err := parseFlags([]string{"-id", "2", "-peers", "1=127.0.0.1:7101,2=127.0.0.1:7102"}); err == nil {
		t.Error("-peers naming the daemon's own -id accepted")
	}
}

// reserveAddrs holds n loopback listeners on free ports. A daemon's peers
// must know its transport address before it starts, so port 0 cannot be
// used; each reservation is closed just before its daemon listens (see
// startReserved). Every reservation is closed at cleanup.
func reserveAddrs(t *testing.T, n int) []net.Listener {
	t.Helper()
	out := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		out[i] = ln
	}
	return out
}

// startReserved releases a daemon's port reservation and starts the daemon
// on it. Another process can take the port in between (go test runs
// packages in parallel), so a bind conflict is retried for up to a second.
func startReserved(ln net.Listener, c config) (*daemon, error) {
	ln.Close()
	deadline := time.Now().Add(time.Second)
	for {
		d, err := start(c)
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) || time.Now().After(deadline) {
			return d, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ensembleConfigs builds the configs of an n-daemon loopback ensemble from
// -id and -peers alone: no daemon is told which classes it supports. The
// i-th config listens on the i-th returned reservation's address.
func ensembleConfigs(t *testing.T, n, lambda int) ([]config, []net.Listener) {
	t.Helper()
	lns := reserveAddrs(t, n)
	cs := make([]config, n)
	for i := range cs {
		var peers []string
		for j, ln := range lns {
			if j != i {
				peers = append(peers, fmt.Sprintf("%d=%s", j+1, ln.Addr()))
			}
		}
		c, err := parseFlags([]string{
			"-id", fmt.Sprint(i + 1), "-listen", lns[i].Addr().String(), "-client", "127.0.0.1:0",
			"-peers", strings.Join(peers, ","), "-lambda", fmt.Sprint(lambda),
			"-heartbeat", "10ms", "-fail-timeout", "250ms", "-sample-interval", "0",
		})
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	return cs, lns
}

// ask sends one protocol line to a daemon's client port and returns the
// response line.
func ask(t *testing.T, d *daemon, line string) string {
	t.Helper()
	conn, err := net.DialTimeout("tcp", d.srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return strings.TrimSpace(resp)
}

// TestEnsembleDerivesSupports starts three daemons from -peers alone and
// checks the §4.1 shape the paper fixes: every class has exactly λ+1 basic
// daemons, and they are the class's write group once the views settle. A
// tuple inserted through one daemon is then read through another.
func TestEnsembleDerivesSupports(t *testing.T) {
	const n, lambda = 3, 1
	cs, lns := ensembleConfigs(t, n, lambda)
	ds := make([]*daemon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds[i], errs[i] = startReserved(lns[i], cs[i])
		}(i)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, d := range ds {
			if d != nil {
				d.close()
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("daemon %d: %v", i+1, err)
		}
	}

	classifier := class.NewNameArity(cs[0].names, cs[0].arity)
	classes := classifier.Classes()
	for _, cls := range classes {
		basic := 0
		for _, d := range ds {
			if d.m.IsBasic(cls) {
				basic++
			}
		}
		if basic != lambda+1 {
			t.Errorf("class %s has %d basic daemons, want λ+1 = %d", cls, basic, lambda+1)
		}
	}
	// Each daemon joins its groups once it sees the others; the views settle
	// when every daemon is a member of exactly its basic classes.
	settled := func() bool {
		for _, d := range ds {
			if len(d.ep.Alive()) != n {
				return false
			}
		}
		for _, cls := range classes {
			for _, d := range ds {
				if d.m.MemberOf(cls) != d.m.IsBasic(cls) {
					return false
				}
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !settled(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("write groups never settled on the basic daemons")
		}
	}

	// The reader is outside B(C), so the read crosses the network.
	cls := classifier.ClassOf(tuple.Make(tuple.String("point"), tuple.String("origin"), tuple.Int(3), tuple.Int(4)))
	reader := slices.IndexFunc(ds, func(d *daemon) bool { return !d.m.IsBasic(cls) })
	writer := (reader + 1) % n
	if resp := ask(t, ds[writer], "insert point s:origin i:3 i:4"); !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("insert on daemon %d: %q", writer+1, resp)
	}
	if resp := ask(t, ds[reader], "read point ?s ?i ?i"); !strings.HasPrefix(resp, "OK ") || !strings.HasSuffix(resp, "s:origin i:3 i:4") {
		t.Fatalf("read on daemon %d: %q", reader+1, resp)
	}
}

// TestLambdaMustBeBelowEnsemble checks λ ≥ |ensemble| is refused at
// startup, before anything listens.
func TestLambdaMustBeBelowEnsemble(t *testing.T) {
	cs, _ := ensembleConfigs(t, 3, 3)
	err := serve(cs[0], nil)
	if err == nil || !strings.Contains(err.Error(), "-lambda 3 must be < 3") {
		t.Fatalf("λ = 3 over 3 daemons: err = %v", err)
	}
}
