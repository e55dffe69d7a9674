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

// BatchShardStats is one shard's contribution to a batch conversion.
type BatchShardStats struct {
	Values int // values this shard converted
	Bytes  int // output bytes this shard produced
}

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
	Shards  []BatchShardStats
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
// conversion amortizes across the whole batch: on the Ryū kernel's path
// the entire batch costs two allocations (buffer and offsets)
// regardless of length.  It is the single-shard engine; the
// floatprint/batch package runs the same conversion sharded across a
// worker pool with cancellation.
func BatchShortest(values []float64) *BatchResult {
	buf := make([]byte, 0, len(values)*meanShortestBytes)
	offsets := make([]int, len(values)+1)
	for i, v := range values {
		buf = AppendShortest(buf, v)
		offsets[i+1] = len(buf)
	}
	stats.BatchValues.Add(uint64(len(values)))
	stats.BatchBytes.Add(uint64(len(buf)))
	return &BatchResult{
		Buf:     buf,
		Offsets: offsets,
		Shards:  []BatchShardStats{{Values: len(values), Bytes: len(buf)}},
	}
}
