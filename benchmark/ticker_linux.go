//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker wakes its waiter every interval with the kernel's timer precision
// and without disturbing the scheduler the cluster runs on. It is a timerfd
// read through the runtime's network poller: the waiting goroutine parks
// holding no P, and the expiry is an epoll event, delivered when it happens.
//
// The portable ways to wait all distort an open loop on a small machine.
// time.Sleep on an idle process wakes up to a millisecond late, because a
// parked P waits in epoll with a timeout counted in whole milliseconds:
// eight arrivals' worth at 8000 ops/s, released in bursts. A blocking
// nanosleep keeps its P until the runtime's monitor takes it back, and a loop
// around runtime.Gosched keeps a P from ever reaching the network poller;
// measured here, either one raised the cluster's median latency tenfold.
type ticker struct{ f *os.File }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newTicker(interval time.Duration) (*ticker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// struct itimerspec: the interval, then the first expiry.
	spec := [2]syscall.Timespec{syscall.NsecToTimespec(int64(interval)), syscall.NsecToTimespec(int64(interval))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd")}, nil
}

// wait blocks until the timer has expired at least once since the last wait.
func (t *ticker) wait() error {
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *ticker) stop() { t.f.Close() }
