//go:build race

package core

// raceEnabled reports whether the race detector is on: under it
// sync.Pool drops items at random, so allocation counts mean nothing.
const raceEnabled = true
