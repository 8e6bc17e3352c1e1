package main

import (
	"testing"

	"paso/internal/class"
	"paso/internal/core"
)

func TestRunAgainstLiveServer(t *testing.T) {
	cfg := core.Config{
		Classifier: class.NewNameArity([]string{"point"}, 4),
		Lambda:     0,
	}
	c, err := core.NewCluster(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	srv, err := core.ServeProtocol("127.0.0.1:0", c.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	addr := srv.Addr()
	if err := run([]string{"-addr", addr, "insert", "point", "i:3", "i:4"}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := run([]string{"-addr", addr, "read", "point", "?i", "?i"}); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := run([]string{"-addr", addr, "take", "point", "i:0..9", "?i"}); err != nil {
		t.Fatalf("take: %v", err)
	}
	if err := run([]string{"-addr", addr, "stats"}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("empty command accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:1", "-timeout", "100ms", "read", "x"}); err == nil {
		t.Error("unreachable server accepted")
	}
}
