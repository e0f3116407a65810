//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts are only pinned without it.
const raceEnabled = true
