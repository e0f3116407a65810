//go:build race

package server

// raceEnabled reports that the race detector is on: allocation budgets are
// not stable under it.
const raceEnabled = true
