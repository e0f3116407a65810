//go:build !race

package partition_test

const raceEnabled = false
