//go:build linux && !race

// The race detector's sync.Pool drops a share of what is put in it on
// purpose, so pooled paths allocate under -race; this file's checks build
// only without it.

package tcp

import (
	"bufio"
	"testing"

	"paso/internal/transport"
)

// TestInlineSendOwnedZeroAlloc: a SendOwned frame on an idle link costs no
// more than a Send (TestInlineSendZeroAlloc): its pooled buffer goes back
// to the pool unboxed once the inline writev has taken it.
func TestInlineSendOwnedZeroAlloc(t *testing.T) {
	var tp tap
	e, ln := inlineSender(t, wrapTap(&tp, nil))
	if err := e.Send(2, []byte("dial")); err != nil {
		t.Fatal(err)
	}
	c := accept(t, ln)
	waitPeer(t, e, 2, "an idle link", idle)
	payload := make([]byte, 128)
	var serr error
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.SendOwned(2, append(transport.GetBuf(), payload...)); err != nil {
			serr = err
		}
	})
	if serr != nil {
		t.Fatal(serr)
	}
	if allocs != 0 {
		t.Fatalf("inline SendOwned: %v allocs/op, want 0", allocs)
	}
	if w, sh := tp.whole.Load(), tp.short.Load(); w != 101 || sh != 0 {
		t.Fatalf("inline writes: %d whole, %d short; want all 101 whole", w, sh)
	}
	waitPeer(t, e, 2, "an idle link", idle)
	br := bufio.NewReader(c)
	expectFrame(t, br, "")
	expectFrame(t, br, "dial")
	for i := 0; i < 101; i++ {
		expectFrame(t, br, string(payload))
	}
}
