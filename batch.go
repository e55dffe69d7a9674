package floatprint

import (
	"io"

	"floatprint/internal/stats"
)

// meanShortestBytes is the capacity estimate per value for batch output
// buffers: the longest shortest-form rendering of a float64
// ("-1.2345678901234567e-308") is 24 bytes, and typical corpus values
// average well under that, so one up-front allocation usually suffices.
const meanShortestBytes = 24

// BatchResult is a packed batch conversion: every value's shortest
// rendering concatenated into one buffer, delimited by offsets.  Value i
// occupies Buf[Offsets[i]:Offsets[i+1]]; the bytes are exactly what
// AppendShortest would have produced for that value, so the packed form
// is byte-identical to per-value conversion.
//
// A BatchResult is immutable once returned and safe to share between
// goroutines.
type BatchResult struct {
	Buf     []byte
	Offsets []int // len(values)+1 entries; Offsets[0] == 0
}

// Len returns the number of values in the result.
func (r *BatchResult) Len() int { return len(r.Offsets) - 1 }

// Value returns the rendering of value i as a subslice of Buf (do not
// modify it).
func (r *BatchResult) Value(i int) []byte {
	return r.Buf[r.Offsets[i]:r.Offsets[i+1]]
}

// WriteTo writes the packed buffer to w, implementing io.WriterTo.
func (r *BatchResult) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r.Buf)
	return int64(n), err
}

// BatchShortest converts values to their shortest renderings in one
// pass, reusing a single output buffer so the per-call overhead of the
// conversion amortizes across the whole batch: the Ryū kernel decides
// every finite value, so the entire batch costs two allocations (buffer
// and offsets) regardless of length.  It is the single-shard engine; the
// floatprint/batch package runs the same conversion sharded across a
// worker pool with cancellation.
func BatchShortest(values []float64) *BatchResult {
	buf := make([]byte, 0, len(values)*meanShortestBytes)
	offsets := make([]int, len(values)+1)
	buf = AppendShortestBatch(buf, values, nil, offsets[1:])
	stats.BatchValues.Add(uint64(len(values)))
	stats.BatchBytes.Add(uint64(len(buf)))
	return &BatchResult{Buf: buf, Offsets: offsets}
}

// AppendShortestBatch appends the AppendShortest rendering of each
// value to dst, each followed by sep (nil for none), and returns the
// extended slice.  If ends is non-nil, ends[i] receives len(dst) after
// value i and its separator, so a caller can delimit the values without
// rescanning; it must hold at least len(values) entries.
//
// It is the one batch print loop: BatchShortest and the floatprint/batch
// engines render through it.  The bytes and the telemetry match a
// per-value AppendShortest loop over the same values exactly, but the
// kernel's hits are summed in a local and added to the shared counter
// once per call, so concurrent batch shards do not contend on one
// counter's cache line for every value.
func AppendShortestBatch(dst []byte, values []float64, sep []byte, ends []int) []byte {
	if ends != nil {
		ends = ends[:len(values)]
	}
	o := defaultOptions()
	var hits uint64
	for i, v := range values {
		var hit bool
		dst, hit = appendShortestOpts(dst, v, o)
		if hit {
			hits++
		}
		dst = append(dst, sep...)
		if ends != nil {
			ends[i] = len(dst)
		}
	}
	stats.RyuHits.Add(hits)
	return dst
}
