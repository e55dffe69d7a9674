//go:build race

package floatprint

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its puts at random, so pooled paths allocate a varying amount per call.
const raceEnabled = true
