//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its puts at random, so pooled paths (slog's buffers) allocate a
// varying amount per request.
const raceEnabled = true
