//go:build race

package rstar

// raceEnabled reports a -race build, under which sync.Pool drops pooled
// items on purpose and allocation counts are not meaningful.
const raceEnabled = true
