// Package batch is the bulk-conversion engine, in both directions,
// across a sharded worker pool.  The print side turns a []float64 into
// shortest decimal renderings, producing either a packed buffer with
// offsets (Convert) or an ordered stream into an io.Writer (WriteAll).
// The parse side, ParseAll, streams separator-delimited decimal text in
// and packed little-endian float64s out, in bounded memory (see
// parse.go).
//
// The design target is the corpus-scale regime of the paper's
// evaluation — millions of conversions measured end to end — where the
// costs that matter are amortizable: output-buffer growth, offset
// bookkeeping, scheduling, and telemetry.  Each shard owns one append
// buffer for its whole range and renders it a ChunkSize chunk at a time
// through floatprint.AppendShortestBatch, the one batch print loop (the
// Ryū kernel into a stack buffer, which decides every finite value).
// Output is byte-identical to calling floatprint.AppendShortest on each
// value in order, whatever the shard count.
//
// Telemetry: a call adds its value and byte totals to the global
// counters once, at the end, and each chunk adds its kernel hit tally
// once, so shards touch the shared counters a few times per call rather
// than once per value.  The counts are exactly those of a per-value
// AppendShortest loop, and every one has landed when the call returns.
package batch

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"floatprint"
	"floatprint/internal/stats"
)

// perValueBytes is the output capacity estimate per value (the longest
// shortest-form float64 rendering is 24 bytes).
const perValueBytes = 24

// Config tunes a Pool.  The zero value is ready to use.
type Config struct {
	// Shards is the worker count.  Zero or negative means
	// runtime.GOMAXPROCS(0).
	Shards int
	// ChunkSize is the number of values per unit of work: the
	// cancellation-check granularity in Convert and the write granularity
	// in WriteAll.  Zero or negative means 4096.
	ChunkSize int
	// Sep, when non-nil, terminates every value written by WriteAll
	// (e.g. []byte{'\n'} for line-oriented output).  Convert never
	// inserts separators: its packed buffer is delimited by offsets.
	Sep []byte
	// ParseBlockBytes is ParseAll's input block target: how many bytes
	// are buffered (and sharded) per scan-and-write round.  Zero or
	// negative means 1 MiB.
	ParseBlockBytes int
	// MaxTokenBytes caps a single separator-free token in ParseAll; a
	// longer run is a malformed stream, not a number, and is rejected
	// rather than buffered without bound.  Zero or negative means 1 MiB.
	MaxTokenBytes int
}

// Pool is a reusable batch-conversion engine.  A Pool carries no
// per-call state, so one Pool may run any number of concurrent Convert
// and WriteAll calls.
type Pool struct {
	shards     int
	chunk      int
	sep        []byte
	parseBlock int
	maxToken   int
}

// New builds a Pool from cfg, applying defaults.
func New(cfg Config) *Pool {
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = 4096
	}
	parseBlock := cfg.ParseBlockBytes
	if parseBlock <= 0 {
		parseBlock = 1 << 20
	}
	maxToken := cfg.MaxTokenBytes
	if maxToken <= 0 {
		maxToken = 1 << 20
	}
	return &Pool{shards: shards, chunk: chunk, sep: cfg.Sep, parseBlock: parseBlock, maxToken: maxToken}
}

// Shards returns the pool's effective worker count.
func (p *Pool) Shards() int { return p.shards }

// Convert converts values with the default configuration
// (GOMAXPROCS shards); see Pool.Convert.
func Convert(ctx context.Context, values []float64) (*floatprint.BatchResult, error) {
	return New(Config{}).Convert(ctx, values)
}

// Convert renders every value to its shortest form and packs the
// results into one BatchResult.  The input is split into contiguous
// per-shard ranges; each shard converts its range into a private buffer
// (checking ctx every ChunkSize values) and the buffers are stitched in
// input order, so the output is byte-identical to sequential per-value
// AppendShortest calls.  On cancellation the partial work is discarded
// and ctx.Err() returned.
func (p *Pool) Convert(ctx context.Context, values []float64) (*floatprint.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(values)
	shards := p.shards
	if shards > n {
		shards = n
	}
	if n == 0 {
		return &floatprint.BatchResult{Offsets: []int{0}}, nil
	}

	type shardOut struct {
		buf  []byte
		ends []int // per-value end positions, local to buf
		err  error
	}
	outs := make([]shardOut, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := s*n/shards, (s+1)*n/shards
			buf := make([]byte, 0, (hi-lo)*perValueBytes)
			ends := make([]int, hi-lo)
			for i := lo; i < hi; i += p.chunk {
				if err := ctx.Err(); err != nil {
					outs[s].err = err
					return
				}
				j := min(i+p.chunk, hi)
				buf = floatprint.AppendShortestBatch(buf, values[i:j], nil, ends[i-lo:j-lo])
			}
			outs[s].buf, outs[s].ends = buf, ends
		}(s)
	}
	wg.Wait()

	total := 0
	for s := range outs {
		if outs[s].err != nil {
			return nil, outs[s].err
		}
		total += len(outs[s].buf)
	}

	buf := make([]byte, 0, total)
	offsets := make([]int, n+1)
	shardStats := make([]floatprint.BatchShardStats, shards)
	idx := 1
	for s := range outs {
		shift := len(buf)
		buf = append(buf, outs[s].buf...)
		for _, end := range outs[s].ends {
			offsets[idx] = shift + end
			idx++
		}
		shardStats[s] = floatprint.BatchShardStats{
			Values: len(outs[s].ends), Bytes: len(outs[s].buf),
		}
	}
	stats.BatchValues.Add(uint64(n))
	stats.BatchBytes.Add(uint64(total))
	return &floatprint.BatchResult{Buf: buf, Offsets: offsets, Shards: shardStats}, nil
}

// chunkOut is one converted chunk in flight between a WriteAll worker
// and the ordering writer.
type chunkOut struct {
	idx int
	buf []byte
}

// WriteAll streams the shortest renderings of values to w in input
// order, each followed by the pool's Sep.  Values are converted in
// ChunkSize chunks by the worker pool while the calling goroutine
// writes completed chunks in order; at most 2×Shards chunks are in
// flight, so memory stays bounded regardless of input length and chunk
// buffers are recycled.  It returns the byte count written to w and the
// first error (a write error, or ctx.Err() on cancellation).
//
// Writer-side cancel contract: chunks reach w strictly in input order,
// so whatever WriteAll has written when it returns — on success,
// cancellation, or a write error — is a prefix of the full sequential
// output, ending on a chunk boundary; w never sees reordered,
// interleaved, or partial-chunk bytes.  On cancellation every worker
// goroutine exits before WriteAll returns (nothing keeps converting
// into a dead stream), which is what lets a network front end abort a
// response mid-stream and trust both the bytes already sent and its
// goroutine budget.  The byte count returned is exactly what reached w.
func (p *Pool) WriteAll(ctx context.Context, values []float64, w io.Writer) (int64, error) {
	n := len(values)
	if n == 0 {
		return 0, ctx.Err()
	}
	nchunks := (n + p.chunk - 1) / p.chunk
	shards := p.shards
	if shards > nchunks {
		shards = nchunks
	}

	convertChunk := func(ci int, buf []byte) []byte {
		lo := ci * p.chunk
		return floatprint.AppendShortestBatch(buf, values[lo:min(lo+p.chunk, n)], p.sep, nil)
	}

	var written int64
	if shards <= 1 {
		buf := make([]byte, 0, p.chunk*perValueBytes)
		for ci := 0; ci < nchunks; ci++ {
			if err := ctx.Err(); err != nil {
				return written, err
			}
			buf = convertChunk(ci, buf[:0])
			nw, err := w.Write(buf)
			written += int64(nw)
			if err != nil {
				return written, err
			}
		}
		stats.BatchValues.Add(uint64(n))
		stats.BatchBytes.Add(uint64(written))
		return written, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	bufPool := sync.Pool{New: func() any {
		b := make([]byte, 0, p.chunk*perValueBytes)
		return &b
	}}
	var next atomic.Int64
	resCh := make(chan chunkOut, shards)
	// sem bounds chunks in flight (converting or awaiting their turn at
	// the writer).  Workers take a slot before claiming a chunk and the
	// writer releases it after the chunk is written; because chunk
	// indices are claimed in increasing order, the lowest unwritten
	// chunk always holds a slot, so the writer can always make progress.
	sem := make(chan struct{}, 2*shards)

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				ci := int(next.Add(1) - 1)
				if ci >= nchunks {
					<-sem
					return
				}
				bp := bufPool.Get().(*[]byte)
				*bp = convertChunk(ci, (*bp)[:0])
				select {
				case resCh <- chunkOut{idx: ci, buf: *bp}:
					// The writer owns the buffer now and re-pools it after
					// writing.
				case <-ctx.Done():
					<-sem
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	pending := make(map[int][]byte, 2*shards)
	nextWrite := 0
	release := func(buf []byte) {
		<-sem
		b := buf
		bufPool.Put(&b)
	}
	var firstErr error
	for res := range resCh {
		if firstErr != nil {
			release(res.buf) // drain so no worker blocks on resCh
			continue
		}
		pending[res.idx] = res.buf
		for {
			buf, ok := pending[nextWrite]
			if !ok {
				break
			}
			delete(pending, nextWrite)
			nextWrite++
			nw, err := w.Write(buf)
			written += int64(nw)
			release(buf)
			if err != nil {
				firstErr = err
				cancel()
				break
			}
		}
	}
	if firstErr != nil {
		return written, firstErr
	}
	if err := ctx.Err(); err != nil && nextWrite < nchunks {
		return written, err
	}
	stats.BatchValues.Add(uint64(n))
	stats.BatchBytes.Add(uint64(written))
	return written, nil
}
