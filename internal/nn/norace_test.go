//go:build !race

package nn

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random and pooled scratch no longer removes an allocation.
const raceEnabled = false
