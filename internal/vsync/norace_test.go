//go:build !race

package vsync

// raceEnabled reports a -race build; the simulator runs fewer seeds then.
const raceEnabled = false
