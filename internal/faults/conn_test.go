package faults

import (
	"errors"
	"net"
	"testing"
)

// inlineConn is a wrapped connection with the transport's inline-write
// hook; it records what reaches it.
type inlineConn struct {
	net.Conn
	got    []byte
	closed bool
}

func (c *inlineConn) TryWrite(hdr, payload []byte) (int, error) {
	c.got = append(append(c.got, hdr...), payload...)
	return len(hdr) + len(payload), nil
}

func (c *inlineConn) Close() error {
	c.closed = true
	return nil
}

// TestConnTryWriteModes: a frame the transport would write inline obeys
// the director like a Write. Pass reaches the wrapped connection's hook;
// drop reports the frame written and discards it; stall reports that it
// would block, so the transport queues it to its writer; sever closes the
// socket and fails.
func TestConnTryWriteModes(t *testing.T) {
	hdr, payload := []byte("0123456789ab"), []byte("frame")
	for _, tc := range []struct {
		mode    ConnMode
		n       int
		err     error
		reached bool
		closed  bool
	}{
		{ModePass, 17, nil, true, false},
		{ModeDrop, 17, nil, false, false},
		{ModeStall, 0, nil, false, false},
		{ModeSever, 0, ErrSevered, false, true},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			d := NewDirector()
			inner := &inlineConn{}
			c := d.Wrap(7, inner).(*Conn)
			d.Set(7, tc.mode)
			n, err := c.TryWrite(hdr, payload)
			if n != tc.n || !errors.Is(err, tc.err) {
				t.Fatalf("TryWrite = %d, %v; want %d, %v", n, err, tc.n, tc.err)
			}
			if reached := len(inner.got) > 0; reached != tc.reached {
				t.Fatalf("frame reached the socket: %v, want %v", reached, tc.reached)
			}
			if inner.closed != tc.closed {
				t.Fatalf("socket closed: %v, want %v", inner.closed, tc.closed)
			}
		})
	}
	// A wrapped connection without the hook never takes a frame inline.
	c := NewDirector().Wrap(7, &struct{ net.Conn }{}).(*Conn)
	if n, err := c.TryWrite(hdr, payload); n != 0 || err != nil {
		t.Fatalf("TryWrite without an inner hook = %d, %v; want 0, nil", n, err)
	}
}
