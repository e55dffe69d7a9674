//go:build race

package batch

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its puts at random, so pooled buffers are rebuilt at random.
const raceEnabled = true
