//go:build race

package partition_test

// raceEnabled: the race detector's shadow memory and instrumentation change
// what the heap holds, so retained bytes are only pinned without it.
const raceEnabled = true
