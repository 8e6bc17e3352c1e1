//go:build !race

// The race detector's sync.Pool drops a share of what is put in it on
// purpose, so pooled paths allocate under -race; this file's checks build
// only without it.

package transport

import "testing"

// TestBufCycleZeroAlloc pins the payload pool at zero allocations per
// GetBuf/PutBuf cycle once it is warm: recycling a buffer must not box a
// new slice header.
func TestBufCycleZeroAlloc(t *testing.T) {
	PutBuf(GetBuf())
	allocs := testing.AllocsPerRun(1000, func() {
		b := append(GetBuf(), "frame"...)
		PutBuf(b)
	})
	if allocs != 0 {
		t.Fatalf("GetBuf/PutBuf cycle: %v allocs, want 0", allocs)
	}
}
