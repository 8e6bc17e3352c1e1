//go:build linux

package tcp

import (
	"net"
	"syscall"
	"unsafe"
)

// sockConn is a dialed TCP connection that can also take a frame inline:
// TryWrite makes one non-blocking writev of the header and the payload on
// the sender's goroutine. The peer mutex serializes its callers, so the
// iovecs and the bound callback are reused, and an inline write allocates
// nothing.
type sockConn struct {
	*net.TCPConn
	rc    syscall.RawConn
	iov   [2]syscall.Iovec
	cnt   int
	n     int
	err   error
	write func(fd uintptr) bool // s.writev, bound once
}

// inlineConn gives a dialed connection the inline-write hook when the
// platform supports it.
func inlineConn(c net.Conn) net.Conn {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return c
	}
	s := &sockConn{TCPConn: tc, rc: rc}
	s.write = s.writev
	return s
}

// TryWrite implements tryWriter.
func (s *sockConn) TryWrite(hdr, payload []byte) (int, error) {
	s.iov[0].Base = &hdr[0]
	s.iov[0].SetLen(len(hdr))
	s.cnt = 1
	if len(payload) > 0 {
		s.iov[1].Base = &payload[0]
		s.iov[1].SetLen(len(payload))
		s.cnt = 2
	}
	err := s.rc.Write(s.write)
	s.iov = [2]syscall.Iovec{} // do not pin the payload until the next write
	if err != nil {
		return 0, err
	}
	return s.n, s.err
}

// writev is the RawConn callback. It returns true whatever the outcome,
// so RawConn.Write never waits for the socket to become writable: a socket
// that would block reports 0 bytes and the frame goes to the writer.
func (s *sockConn) writev(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&s.iov[0])), uintptr(s.cnt))
		switch errno {
		case 0:
			s.n, s.err = int(n), nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			s.n, s.err = 0, nil
		default:
			s.n, s.err = 0, errno
		}
		return true
	}
}
