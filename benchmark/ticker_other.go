//go:build !linux

package main

import "time"

// ticker is the portable stand-in for the timerfd ticker: it keeps the
// benchmark building elsewhere, with the millisecond-late wake-ups that
// ticker_linux.go describes. Numbers for the record come from Linux.
type ticker struct{ interval time.Duration }

func newTicker(interval time.Duration) (*ticker, error) { return &ticker{interval}, nil }

func (t *ticker) wait() error {
	time.Sleep(t.interval)
	return nil
}

func (t *ticker) stop() {}
