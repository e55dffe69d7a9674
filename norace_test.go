//go:build !race

package floatprint

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
