//go:build !race

package driver_test

const raceEnabled = false
