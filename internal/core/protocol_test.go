package core

import (
	"bufio"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestExecuteCommandInsertReadTake(t *testing.T) {
	c := protoCluster0(t)
	m := c.Machine(1)
	resp := ExecuteCommand(m, "insert task i:5 s:hello b:true")
	if !strings.HasPrefix(resp, "OK id=") {
		t.Fatalf("insert resp = %q", resp)
	}
	resp = ExecuteCommand(m, "read task ?i ?s ?b")
	if !strings.HasPrefix(resp, "OK ") || !strings.Contains(resp, "i:5") ||
		!strings.Contains(resp, "s:hello") || !strings.Contains(resp, "b:true") {
		t.Fatalf("read resp = %q", resp)
	}
	resp = ExecuteCommand(m, "take task i:0..9 ?s ?b")
	if !strings.HasPrefix(resp, "OK ") {
		t.Fatalf("take resp = %q", resp)
	}
	if resp := ExecuteCommand(m, "read task ?i ?s ?b"); resp != "FAIL" {
		t.Fatalf("read after take = %q", resp)
	}
}

func protoCluster0(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(testConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestExecuteCommandErrors(t *testing.T) {
	c := protoCluster0(t)
	m := c.Machine(1)
	for _, cmd := range []string{
		"",
		"bogus",
		"insert",
		"insert task x:1",
		"insert task i:notanint",
		"insert task f:xx",
		"insert task b:maybe",
		"read",
		"read task i:a..b",
		"readwait nope task ?i",
		"takewait",
	} {
		if resp := ExecuteCommand(m, cmd); !strings.HasPrefix(resp, "ERR") {
			t.Errorf("command %q: resp %q, want ERR", cmd, resp)
		}
	}
}

func TestExecuteCommandRanges(t *testing.T) {
	c := protoCluster0(t)
	m := c.Machine(1)
	ExecuteCommand(m, "insert task i:5")
	ExecuteCommand(m, "insert task i:50")
	resp := ExecuteCommand(m, "read task i:40..60")
	if !strings.Contains(resp, "i:50") {
		t.Fatalf("range read = %q", resp)
	}
	ExecuteCommand(m, "insert task f:1.5")
	resp = ExecuteCommand(m, "read task f:1..2")
	if !strings.Contains(resp, "f:1.5") {
		t.Fatalf("float range read = %q", resp)
	}
	if resp := ExecuteCommand(m, "read task i:90..99"); resp != "FAIL" {
		t.Fatalf("empty range = %q", resp)
	}
}

func TestExecuteCommandWaits(t *testing.T) {
	c := protoCluster0(t)
	m := c.Machine(1)
	if resp := ExecuteCommand(m, "readwait 20ms task ?i"); resp != "FAIL" {
		t.Fatalf("readwait timeout = %q", resp)
	}
	done := make(chan string, 1)
	go func() { done <- ExecuteCommand(m, "takewait 10s task ?i") }()
	time.Sleep(10 * time.Millisecond)
	ExecuteCommand(c.Machine(2), "insert task i:1")
	select {
	case resp := <-done:
		if !strings.HasPrefix(resp, "OK ") {
			t.Fatalf("takewait = %q", resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("takewait hung")
	}
}

func TestExecuteCommandStats(t *testing.T) {
	c := protoCluster0(t)
	m := c.Machine(1)
	if resp := ExecuteCommand(m, "stats"); !strings.HasPrefix(resp, "OK\n") || !strings.HasSuffix(resp, "\n.") {
		t.Fatalf("stats = %q", resp)
	}
	insertRow := regexp.MustCompile(`(?m)^insert +1 `)
	if resp := ExecuteCommand(m, "stats"); insertRow.MatchString(resp) {
		t.Fatalf("stats before any insert = %q", resp)
	}
	ExecuteCommand(m, "insert task i:1")
	if resp := ExecuteCommand(m, "stats"); !insertRow.MatchString(resp) {
		t.Fatalf("stats after insert = %q", resp)
	}
}

func TestProtocolServerEndToEnd(t *testing.T) {
	c := protoCluster0(t)
	srv, err := ServeProtocol("127.0.0.1:0", c.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))
	send := func(cmd string) string {
		t.Helper()
		if _, err := rw.WriteString(cmd + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := rw.Flush(); err != nil {
			t.Fatal(err)
		}
		line, err := rw.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}
	if resp := send("insert task i:9"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("insert = %q", resp)
	}
	if resp := send("read task ?i"); !strings.Contains(resp, "i:9") {
		t.Fatalf("read = %q", resp)
	}
	if resp := send("take task i:9"); !strings.HasPrefix(resp, "OK") {
		t.Fatalf("take = %q", resp)
	}
	if resp := send("read task ?i"); resp != "FAIL" {
		t.Fatalf("read after take = %q", resp)
	}
}
