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
// bookkeeping, scheduling, and telemetry.  Both print entry points run
// one chunk pipeline: the input is cut into ChunkSize chunks, workers
// claim them in order and render each into a chunk buffer through
// floatprint.AppendShortestBatch, the one batch print loop (the Ryū
// kernel into a stack buffer, which decides every finite value), and the
// calling goroutine takes the chunks in input order, writing each to w
// (WriteAll) or appending it to one packed buffer (Convert).  A Pool of
// one shard, or an input of one chunk, renders on the calling goroutine
// instead.  Output is byte-identical to calling floatprint.AppendShortest
// on each value in order, whatever the shard count or chunk size.
//
// Telemetry: a call adds its value and byte totals to the global
// counters once, at the end, and each chunk adds its kernel hit tally
// once, so workers touch the shared counters a few times per call rather
// than once per value.  The counts are exactly those of a per-value
// AppendShortest loop, and every one has landed when the call returns.
//
// Buffers: a Pool keeps its idle chunk buffers and ParseAll states in
// idle.Pools, which every goroutine takes from alike, so a long-lived
// Pool (a server's) stops allocating them after its first calls, and
// the GC still reclaims any left idle through two GCs.  A call gives a
// buffer back only once no goroutine it started can touch it.
package batch

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"floatprint"
	"floatprint/internal/idle"
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
	// ChunkSize is the number of values per unit of work: what a worker
	// renders at once, the write granularity of WriteAll, and the
	// cancellation-check granularity of both print calls.  Zero or
	// negative means 4096.
	ChunkSize int
	// Sep, when non-nil, terminates every value written by WriteAll
	// (e.g. []byte{'\n'} for line-oriented output).  Convert never
	// inserts separators: its packed buffer is delimited by offsets.
	Sep []byte
	// ParseBlockBytes is ParseAll's input block target: how many bytes
	// are buffered (and sharded) per scan-and-write round, and the
	// capacity of the block buffer the Pool keeps for reuse across
	// calls.  Zero or negative means 1 MiB.
	ParseBlockBytes int
	// MaxTokenBytes caps a single separator-free token in ParseAll; a
	// longer run is a malformed stream, not a number, and is rejected
	// rather than buffered without bound.  Zero or negative means 1 MiB.
	MaxTokenBytes int
}

// Pool is a reusable batch-conversion engine.  It keeps idle ParseAll
// and chunk buffers for the next call, which the GC may reclaim; no
// call shares a buffer with another while it runs, so one Pool may run
// any number of concurrent Convert, WriteAll and ParseAll calls.
type Pool struct {
	shards     int
	chunk      int
	sep        []byte
	parseBlock int
	maxToken   int

	// Idle buffers.  A chunk buffer holds a whole chunk's longest
	// renderings and separators, so it never regrows.
	chunkBufs   idle.Pool[[]byte]     // a rendered chunk
	parseStates idle.Pool[parseState] // a ParseAll call's buffers
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
	p := &Pool{shards: shards, chunk: chunk, sep: cfg.Sep, parseBlock: parseBlock, maxToken: maxToken}
	p.chunkBufs.New = func() *[]byte {
		b := make([]byte, 0, p.chunk*(perValueBytes+len(p.sep)))
		return &b
	}
	p.parseStates.New = func() *parseState {
		return &parseState{
			buf:     make([]byte, 0, p.parseBlock),
			scratch: make([][]float64, p.shards),
			bounds:  make([]int, p.shards+1),
			errs:    make([]*floatprint.BatchParseError, p.shards),
		}
	}
	return p
}

// Convert renders every value to its shortest form and packs the
// results into one BatchResult, byte-identical to sequential per-value
// AppendShortest calls.  The Pool's workers render ChunkSize chunks, as
// for WriteAll, and the calling goroutine appends each chunk to one
// buffer sized for the longest renderings, so it never regrows.  On
// cancellation the partial work is discarded and ctx.Err() returned.
func (p *Pool) Convert(ctx context.Context, values []float64) (*floatprint.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(values)*perValueBytes)
	offsets := make([]int, len(values)+1)
	err := p.pipeline(ctx, values, nil, offsets[1:], func(chunk []byte) error {
		buf = append(buf, chunk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &floatprint.BatchResult{Buf: buf, Offsets: offsets}, nil
}

// WriteAll streams the shortest renderings of values to w in input
// order, each followed by the pool's Sep.  Values are converted in
// ChunkSize chunks by the worker pool while the calling goroutine
// writes completed chunks in order; at most 2×Shards chunks are in
// flight, so memory stays bounded regardless of input length.  Chunk
// buffers come from the Pool and go back to it when the call ends, and
// each is reused for later chunks meanwhile, so w must not retain the
// slices it is given.  It returns the byte count written to w and the
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
	var written int64
	err := p.pipeline(ctx, values, p.sep, nil, func(chunk []byte) error {
		nw, err := w.Write(chunk)
		written += int64(nw)
		return err
	})
	return written, err
}

// chunks is one call's input cut into units of work: chunk ci holds
// values [ci*size, min((ci+1)*size, len(values))).
type chunks struct {
	values []float64
	sep    []byte // written after every value, or nil
	// ends, when non-nil, receives each value's end offset in the whole
	// output: the worker that renders a chunk writes offsets within the
	// chunk, and the emitting goroutine shifts them into place.
	ends  []int
	size  int
	count int
}

// bounds returns chunk ci's value range [lo, hi).
func (c *chunks) bounds(ci int) (lo, hi int) {
	lo = ci * c.size
	return lo, min(lo+c.size, len(c.values))
}

// render converts chunk ci into *bp, replacing its contents.
func (c *chunks) render(ci int, bp *[]byte) {
	lo, hi := c.bounds(ci)
	var ends []int
	if c.ends != nil {
		ends = c.ends[lo:hi]
	}
	*bp = floatprint.AppendShortestBatch((*bp)[:0], c.values[lo:hi], c.sep, ends)
}

// deliver shifts rendered chunk ci's ends past the *total bytes emitted
// before it, adds its length to *total and passes it to emit.
func (c *chunks) deliver(ci int, chunk []byte, total *int, emit func([]byte) error) error {
	if c.ends != nil {
		lo, hi := c.bounds(ci)
		for i := lo; i < hi; i++ {
			c.ends[i] += *total
		}
	}
	*total += len(chunk)
	return emit(chunk)
}

// pipeline renders values a ChunkSize chunk at a time, each value
// followed by sep, and hands each chunk to emit in input order on the
// calling goroutine, checking ctx before each one; ends, when non-nil,
// receives every value's end offset in the concatenated output.  A Pool
// of one shard, or an input of one chunk, renders on the calling
// goroutine into one buffer; otherwise workers render ahead (see
// parallel).  Every worker has exited when it returns.  On success the
// call's values and bytes go to the batch counters.
func (p *Pool) pipeline(ctx context.Context, values []float64, sep []byte, ends []int, emit func([]byte) error) error {
	n := len(values)
	if n == 0 {
		return ctx.Err()
	}
	c := chunks{values: values, sep: sep, ends: ends, size: p.chunk, count: (n + p.chunk - 1) / p.chunk}
	total := 0
	var err error
	if shards := min(p.shards, c.count); shards > 1 {
		err = p.parallel(ctx, c, shards, &total, emit)
	} else {
		bp := p.chunkBufs.Get()
		for ci := 0; ci < c.count; ci++ {
			if err = ctx.Err(); err != nil {
				break
			}
			c.render(ci, bp)
			if err = c.deliver(ci, *bp, &total, emit); err != nil {
				break
			}
		}
		p.chunkBufs.Put(bp)
	}
	if err != nil {
		return err
	}
	stats.BatchValues.Add(uint64(n))
	stats.BatchBytes.Add(uint64(total))
	return nil
}

// job is the state of one parallel pipeline, shared by its workers.
type job struct {
	chunks
	bufs []*[]byte     // the call's chunk buffers
	next atomic.Int64  // chunks claimed; set to count to stop the claiming
	free chan int      // buffers no chunk holds, as indices into bufs
	done chan rendered // rendered chunks, in any order
	wg   sync.WaitGroup
}

// rendered is chunk ci, rendered into bufs[buf].
type rendered struct{ ci, buf int }

// work is one worker: it takes a free buffer, claims the next chunk,
// renders it and sends it on, until no chunk is left to claim.  No send
// blocks: each channel holds as many entries as there are buffers.
func (j *job) work() {
	defer j.wg.Done()
	for {
		b := <-j.free
		ci := int(j.next.Add(1) - 1)
		if ci >= j.count {
			j.free <- b
			return
		}
		j.render(ci, j.bufs[b])
		j.done <- rendered{ci, b}
	}
}

// parallel runs the pipeline on shards workers and 2×shards buffers
// (at most one per chunk), taken from the Pool on the calling goroutine
// and given back there once every worker has exited.  Chunks are
// claimed in increasing order and each holds a buffer until it is
// emitted, so the chunks in flight span no more indices than there are
// buffers, and the lowest one always holds a buffer: the emitting
// goroutine can always make progress, and returns each buffer to the
// free list once its chunk is emitted.
func (p *Pool) parallel(ctx context.Context, c chunks, shards int, total *int, emit func([]byte) error) error {
	nbufs := min(2*shards, c.count)
	j := &job{chunks: c, bufs: make([]*[]byte, nbufs), free: make(chan int, nbufs), done: make(chan rendered, nbufs)}
	for b := range j.bufs {
		j.bufs[b] = p.chunkBufs.Get()
		j.free <- b
	}
	j.wg.Add(shards)
	work := j.work // one closure for every worker; go j.work() makes one each
	for range shards {
		go work()
	}

	// held[ci%nbufs] is 1 + the buffer of chunk ci, from its arrival
	// until its turn.
	held := make([]int, nbufs)
	emitted := 0
	var err error
	for emitted < c.count {
		if err = ctx.Err(); err != nil {
			break
		}
		h := &held[emitted%nbufs]
		for *h == 0 {
			r := <-j.done
			held[r.ci%nbufs] = r.buf + 1
		}
		b := *h - 1
		*h = 0
		err = j.deliver(emitted, *j.bufs[b], total, emit)
		emitted++
		j.free <- b
		if err != nil {
			break
		}
	}
	if err != nil {
		// Stop the claiming, then free the buffers of the chunks claimed
		// but not emitted, so that every worker gets a turn to find no
		// chunk left.
		pending := min(int(j.next.Swap(int64(c.count))), c.count) - emitted
		for _, h := range held {
			if h != 0 {
				j.free <- h - 1
				pending--
			}
		}
		for range pending {
			j.free <- (<-j.done).buf
		}
	}
	j.wg.Wait()
	for _, bp := range j.bufs {
		p.chunkBufs.Put(bp)
	}
	return err
}
