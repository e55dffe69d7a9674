//go:build !race

package batch

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
