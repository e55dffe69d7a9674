package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"

	"floatprint"
	"floatprint/internal/idle"
	"floatprint/internal/span"
	"floatprint/interval"
)

// query is a request's raw URL query, read one name at a time as
// url.ParseQuery followed by url.Values.Get reads it, without building
// the map: Get returns the first pair whose unescaped key is name,
// skipping pairs that contain ';' or fail to unescape, as ParseQuery
// does.  Unescaping allocates only for a key or value with '%' or '+'.
type query string

// Get returns the first value of name, or "" when no pair has it.
func (q query) Get(name string) string {
	for rest := string(q); rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// optionsFromQuery maps the common query parameters onto
// floatprint.Options; the library's own validation (Options.norm at
// the API boundary) rejects bad bases, so only syntax is checked here.
func optionsFromQuery(q query) (floatprint.Options, error) {
	var opts floatprint.Options
	if b := q.Get("base"); b != "" {
		n, err := strconv.Atoi(b)
		if err != nil {
			return opts, fmt.Errorf("bad base %q", b)
		}
		opts.Base = n
	}
	switch q.Get("mode") {
	case "", "even":
		opts.Reader = floatprint.ReaderNearestEven
	case "unknown":
		opts.Reader = floatprint.ReaderUnknown
	case "away":
		opts.Reader = floatprint.ReaderNearestAway
	case "zero":
		opts.Reader = floatprint.ReaderNearestTowardZero
	default:
		return opts, fmt.Errorf("bad mode %q (want even, unknown, away, zero)", q.Get("mode"))
	}
	switch q.Get("notation") {
	case "", "auto":
		opts.Notation = floatprint.NotationAuto
	case "sci":
		opts.Notation = floatprint.NotationScientific
	case "pos":
		opts.Notation = floatprint.NotationPositional
	default:
		return opts, fmt.Errorf("bad notation %q (want auto, sci, pos)", q.Get("notation"))
	}
	switch q.Get("nomarks") {
	case "", "0", "false":
	case "1", "true":
		opts.NoMarks = true
	default:
		return opts, fmt.Errorf("bad nomarks %q", q.Get("nomarks"))
	}
	backend, err := floatprint.ParseBackend(q.Get("backend"))
	if err != nil {
		return opts, fmt.Errorf("bad backend %q (want auto, exact)", q.Get("backend"))
	}
	opts.Backend = backend
	return opts, nil
}

// bitsFromQuery reads the bits query parameter of /v1/shortest,
// /v1/parse and /v1/fixed: "" or "64" selects binary64, "32" binary32.
func bitsFromQuery(q query) (bits32 bool, err error) {
	switch b := q.Get("bits"); b {
	case "", "64":
		return false, nil
	case "32":
		return true, nil
	default:
		return false, fmt.Errorf("bad bits %q (want 32, 64)", b)
	}
}

// queryValue returns the named query parameter, refusing an absent one
// and one longer than MaxValueBytes.
func queryValue(q query, name string) (string, error) {
	s := q.Get(name)
	if s == "" {
		return "", fmt.Errorf("missing %s parameter", name)
	}
	if len(s) > MaxValueBytes {
		return "", fmt.Errorf("%s exceeds the limit of %d bytes", name, MaxValueBytes)
	}
	return s, nil
}

// floatParam reads one named float query parameter with Parse, or
// Parse32 (one rounding) for bits32: base 10 and nearest-even whatever
// the request's base and mode, so a literal means the same value on
// every route.  Out-of-range literals keep IEEE semantics: 1e999 reads
// as +Inf, not an error.
func floatParam(q query, name string, bits32 bool) (float64, error) {
	s, err := queryValue(q, name)
	if err != nil {
		return 0, err
	}
	var v float64
	if bits32 {
		var f float32
		f, err = floatprint.Parse32(s, nil)
		v = float64(f)
	} else {
		v, err = floatprint.Parse(s, nil)
	}
	if err != nil && !errors.Is(err, floatprint.ErrRange) {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	return v, nil
}

// writeDigits renders d under opts and writes it as one text line,
// timing the rendering as the request's encode span.
func writeDigits(w http.ResponseWriter, sp *span.Span, d floatprint.Digits, opts *floatprint.Options) {
	enc := sp.StartChild("encode")
	out, err := d.Append(lineBuf(w), opts)
	if err != nil {
		enc.End()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	enc.SetAttrInt("bytes", int64(len(out)+1))
	enc.End()
	writeLine(w, out)
}

// convRecord allocates a per-conversion algorithm record when the
// conversion span is live, nil otherwise — a record is only worth
// filling when there is a span to attach it to.  Handlers always call
// the traced API twins with it: a nil record makes a twin exactly the
// plain call, telemetry counters included.
func convRecord(sp *span.Span) *floatprint.Trace {
	if sp.Recording() {
		return new(floatprint.Trace)
	}
	return nil
}

// handleShortest serves GET /v1/shortest: the free-format (shortest
// round-tripping) rendering of one value.
func (s *Server) handleShortest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sp := spanOf(w)
	dec := sp.StartChild("decode")
	q := query(r.URL.RawQuery)
	opts, err := optionsFromQuery(q)
	var bits32 bool
	if err == nil {
		bits32, err = bitsFromQuery(q)
	}
	var v float64
	if err == nil {
		v, err = floatParam(q, "v", bits32)
	}
	dec.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	conv := sp.StartChild("convert")
	var d floatprint.Digits
	if bits32 {
		// The traced twins are 64-bit only; single precision converts
		// through the plain API, span timing still applies.
		conv.SetAttr("bits", "32")
		d, err = floatprint.ShortestDigits32(float32(v), &opts)
	} else {
		rec := convRecord(conv)
		d, err = floatprint.ShortestDigitsTraced(v, &opts, rec)
		attachConversion(conv, rec)
	}
	conv.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeDigits(w, sp, d, &opts)
}

// handleParse serves GET /v1/parse: reads the s query parameter with
// the library's own reader — the certified Eisel–Lemire fast path with
// exact fallback, under the same base/mode options as the print
// endpoints — and responds with the shortest rendering of the parsed
// value under those options.  Out-of-range literals keep IEEE
// semantics: the response is ±Inf's rendering, not an error, as for v
// elsewhere.  bits=32 parses directly to single precision (one
// rounding).
func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sp := spanOf(w)
	dec := sp.StartChild("decode")
	q := query(r.URL.RawQuery)
	opts, err := optionsFromQuery(q)
	var bits32 bool
	if err == nil {
		bits32, err = bitsFromQuery(q)
	}
	var in string
	if err == nil {
		in, err = queryValue(q, "s")
	}
	dec.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	conv := sp.StartChild("convert")
	var (
		d   floatprint.Digits
		v   float64
		v32 float32
	)
	if bits32 {
		conv.SetAttr("bits", "32")
		v32, err = floatprint.Parse32(in, &opts)
	} else {
		// The parse is this endpoint's conversion of interest — the
		// attached algorithm record describes the read path (fast-path
		// certification, exact fallback), not the response rendering.
		rec := convRecord(conv)
		v, err = floatprint.ParseTraced(in, &opts, rec)
		attachConversion(conv, rec)
	}
	switch {
	case err != nil && !errors.Is(err, floatprint.ErrRange):
		err = fmt.Errorf("reading s: %w", err)
	case bits32:
		d, err = floatprint.ShortestDigits32(v32, &opts)
	default:
		d, err = floatprint.ShortestDigits(v, &opts)
	}
	conv.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeDigits(w, sp, d, &opts)
}

// handleInterval serves GET /v1/interval: interval I/O with the
// enclosure guarantee.  With lo= and hi=, it prints the shortest
// decimal interval enclosing [lo, hi] (lower endpoint rounded outward
// down, upper outward up).  With s=[a,b], it reads the text with
// outward rounding — out-of-range endpoints widen rather than fail —
// and responds with the shortest enclosing rendering of the resulting
// float64 interval.  Exactly one of the two forms is required.  Either
// way the response interval encloses the request's, so chained
// print/parse hops through the service only ever widen.
func (s *Server) handleInterval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sp := spanOf(w)
	dec := sp.StartChild("decode")
	q := query(r.URL.RawQuery)
	opts, err := optionsFromQuery(q)
	in := q.Get("s")
	hasPair := q.Get("lo") != "" || q.Get("hi") != ""
	if err == nil && (in == "") == !hasPair {
		err = errors.New("exactly one of s=[lo,hi] or lo=&hi= is required")
	}
	var iv interval.Interval
	if err == nil {
		if in != "" {
			if in, err = queryValue(q, "s"); err == nil {
				iv, err = interval.Parse(in, &opts)
			}
		} else {
			var lo, hi float64
			if lo, err = floatParam(q, "lo", false); err == nil {
				if hi, err = floatParam(q, "hi", false); err == nil {
					iv, err = interval.New(lo, hi)
				}
			}
		}
	}
	dec.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Interval conversion has no traced twin; the span still times it.
	conv := sp.StartChild("convert")
	out, err := interval.AppendShortest(lineBuf(w), iv, &opts)
	conv.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeLine(w, out)
}

// MaxValueBytes bounds every value the service reads: each query value
// (v, lo, hi, s) and each token of a /v1/batch or /v1/batch-parse body
// (the pool's batch.Config.MaxTokenBytes).  A longer one gets 400 naming
// the limit, before any read.  The exact reader's cost grows with about
// the square of a literal's length; at the bound the worst literal reads
// in tens of milliseconds, not seconds.  The cap refuses nothing that
// carries information: a binary64 midpoint has 767 significant digits.
const MaxValueBytes = 64 << 10

// MaxFixedPositions bounds /v1/fixed's digit count n and absolute
// position |pos|; a request beyond it gets 400.  The exact fixed-format
// core's cost grows superlinearly in both, so an unbounded query string
// could pin a core or exhaust memory with one GET.  The cap refuses
// nothing that carries information: in any base 2–36 the significant
// digits of a binary64 lie between positions 1023 and −1074 (base 2 is
// the widest), so every position beyond ±1100, and every digit past the
// 1100th, is a '#' mark or a zero.
const MaxFixedPositions = 1100

// handleFixed serves GET /v1/fixed: fixed-format rendering at n
// significant digits (n=...) or at an absolute digit position
// (pos=...), with '#' marks past the point of significance unless
// nomarks is set.  n and |pos| are capped at MaxFixedPositions; bits=32
// applies to n only.
func (s *Server) handleFixed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sp := spanOf(w)
	dec := sp.StartChild("decode")
	q := query(r.URL.RawQuery)
	opts, err := optionsFromQuery(q)
	ns, ps := q.Get("n"), q.Get("pos")
	if err == nil && (ns == "") == (ps == "") {
		err = errors.New("exactly one of n (significant digits) or pos (absolute position) is required")
	}
	var bits32 bool
	if err == nil {
		bits32, err = bitsFromQuery(q)
	}
	var n, pos int
	var v float64
	if err == nil {
		switch {
		case ns != "":
			if n, err = strconv.Atoi(ns); err != nil {
				err = fmt.Errorf("bad n %q", ns)
			} else if n > MaxFixedPositions {
				err = fmt.Errorf("n %d exceeds the limit of %d digits", n, MaxFixedPositions)
			} else {
				v, err = floatParam(q, "v", bits32)
			}
		default:
			if pos, err = strconv.Atoi(ps); err != nil {
				err = fmt.Errorf("bad pos %q", ps)
			} else if pos > MaxFixedPositions || pos < -MaxFixedPositions {
				err = fmt.Errorf("pos %d exceeds the limit of ±%d positions", pos, MaxFixedPositions)
			} else if bits32 {
				err = errors.New("pos does not take bits=32: there is no single-precision absolute-position conversion")
			} else {
				v, err = floatParam(q, "v", false)
			}
		}
	}
	dec.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	conv := sp.StartChild("convert")
	var d floatprint.Digits
	if bits32 {
		conv.SetAttr("bits", "32")
		d, err = floatprint.FixedDigits32(float32(v), n, &opts)
	} else {
		rec := convRecord(conv)
		if ns != "" {
			d, err = floatprint.FixedDigitsTraced(v, n, &opts, rec)
		} else {
			d, err = floatprint.FixedPositionDigitsTraced(v, pos, &opts, rec)
		}
		attachConversion(conv, rec)
	}
	conv.End()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeDigits(w, sp, d, &opts)
}

// batchBlockValues is how many input values accumulate before a block
// is handed to the pool: large enough that the shard pipeline has real
// work per block, small enough that in-flight memory stays bounded
// (one block slab plus the pool's 2×shards chunk buffers) no matter
// how long the request stream is.  The slab comes from blockSlabs and
// goes back when the request ends, so requests reuse it.
const batchBlockValues = 65536

// The batch sinks' buffers, reused across requests; the GC may reclaim
// idle ones.
var (
	// blockSlabs holds batchStream value blocks.
	blockSlabs = idle.Pool[[]float64]{New: func() *[]float64 {
		b := make([]float64, 0, batchBlockValues)
		return &b
	}}
	// heldBlocks holds packedWriter's copies of a first output block.
	heldBlocks = idle.Pool[[]byte]{New: func() *[]byte { return new([]byte) }}
	// copyBufs holds the buffers binary /v1/batch bodies are read
	// through, io.Copy's size.
	copyBufs = idle.Pool[[]byte]{New: func() *[]byte {
		b := make([]byte, 32<<10)
		return &b
	}}
)

// handleBatch serves POST /v1/batch: a stream of float64 values in, the
// shortest rendering of each value out, one per line, in input order.
// A body with Content-Type application/octet-stream is packed
// little-endian float64s; any other is text in the batch grammar
// (floatprint.BatchSep), read by the pool's parse engine as
// /v1/batch-parse reads it.  Both feed one sink, the batchStream, and
// conversion and response writing overlap through batch.Pool.WriteAll.
// The request context, bounded by RequestTimeout, cancels mid-stream on
// the deadline or a client disconnect.
//
// Input errors before the first output byte produce a 4xx (a malformed
// text token is a 400 carrying its record and byte offset); after
// output has started the handler aborts the connection (the net/http
// abort sentinel), so a malformed tail can never masquerade as a
// complete response.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes)

	st := &batchStream{s: s, w: w, ctx: ctx}
	defer st.release()
	// One convert span covers the whole stream: decode and conversion
	// interleave block by block, so per-stage children would mostly
	// measure each other.  The deferred End keeps the span honest on
	// the abort path (st.fail panics after output has started).
	conv := spanOf(w).StartChild("convert")
	defer func() {
		conv.SetAttrInt("values", st.values)
		conv.End()
	}()
	var err error
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		conv.SetAttr("format", "binary")
		cb := copyBufs.Get()
		defer copyBufs.Put(cb)
		if _, err = io.CopyBuffer(st, body, *cb); err == nil && st.npart > 0 {
			err = fmt.Errorf("body length not a multiple of 8 (%d trailing bytes)", st.npart)
		}
	} else {
		conv.SetAttr("format", "text")
		_, err = s.pool.ParseAll(ctx, body, st)
	}
	if err == nil {
		err = st.finish()
	}
	if err != nil {
		st.fail(err)
	}
}

// batchStream is the per-request state of a streaming batch: the sink
// both formats write packed float64s into, the accumulating block, and
// whether output has started (which decides between a clean 4xx and a
// connection abort on failure).
type batchStream struct {
	s       *Server
	w       http.ResponseWriter
	ctx     context.Context // the request's, bounded by RequestTimeout
	slab    *[]float64      // block's backing array, from blockSlabs on the first value
	block   []float64
	part    [8]byte // a value split across writes, npart bytes of it
	npart   int
	started bool
	values  int64 // values accepted so far, for the convert span
}

// release returns the block slab to blockSlabs.  Handlers defer it, so
// it runs after WriteAll, which reads the block from its shards, has
// returned, on the abort path too.
func (st *batchStream) release() {
	if st.slab != nil {
		blockSlabs.Put(st.slab)
	}
}

// fail reports err: as an HTTP status if nothing has been written yet
// (400 unless the body read or the context failed), otherwise by
// aborting the connection.
func (st *batchStream) fail(err error) {
	if st.started {
		st.s.log.Printf("serve: [%s] aborting batch stream: %v", requestID(st.w), err)
		panic(http.ErrAbortHandler)
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(st.w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		http.Error(st.w, "request body read timed out", http.StatusRequestTimeout)
		return
	}
	if errors.Is(err, st.ctx.Err()) && st.ctx.Err() != nil {
		http.Error(st.w, "request timed out or canceled", http.StatusServiceUnavailable)
		return
	}
	http.Error(st.w, err.Error(), http.StatusBadRequest)
}

// Write takes packed little-endian float64s and adds each whole value
// to the block.  The parse engine writes whole values, but a binary body
// can arrive split anywhere, so a partial value waits in part for the
// next write.
func (st *batchStream) Write(p []byte) (int, error) {
	n := len(p)
	if st.npart > 0 {
		c := copy(st.part[st.npart:], p)
		if st.npart += c; st.npart < 8 {
			return n, nil
		}
		st.npart, p = 0, p[c:]
		if err := st.push(st.part[:]); err != nil {
			return 0, err
		}
	}
	for ; len(p) >= 8; p = p[8:] {
		if err := st.push(p); err != nil {
			return 0, err
		}
	}
	st.npart = copy(st.part[:], p)
	return n, nil
}

// push adds the value packed in p[:8], flushing the block to the pool
// when full.
func (st *batchStream) push(p []byte) error {
	if st.slab == nil {
		st.slab = blockSlabs.Get()
		st.block = (*st.slab)[:0]
	}
	st.block = append(st.block, math.Float64frombits(binary.LittleEndian.Uint64(p)))
	st.values++
	if len(st.block) == cap(st.block) {
		return st.flush()
	}
	return nil
}

// flush streams the accumulated block through the pool and flushes the
// response writer, so clients observe output as it is produced.
func (st *batchStream) flush() error {
	if len(st.block) == 0 {
		return nil
	}
	if !st.started {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.started = true
	}
	n, err := st.s.pool.WriteAll(st.ctx, st.block, st.w)
	st.block = st.block[:0]
	if err != nil {
		if n > 0 {
			// Partial output reached the wire: only an abort is honest.
			st.s.log.Printf("serve: [%s] aborting batch stream mid-write: %v", requestID(st.w), err)
			panic(http.ErrAbortHandler)
		}
		return err
	}
	if f, ok := st.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// finish flushes the final partial block and, for an empty result,
// still commits a 200 with an empty body.
func (st *batchStream) finish() error {
	if err := st.flush(); err != nil {
		return err
	}
	if !st.started {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
	}
	return nil
}

// handleBatchParse serves POST /v1/batch-parse: the ingestion inverse
// of /v1/batch.  Separator-delimited decimal text in (newlines, commas,
// CR, spaces, tabs — the batch grammar of floatprint.BatchSep), packed
// little-endian float64s out, in input order, streamed in bounded
// memory through batch.Pool.ParseAll's block-at-a-time engine.  Every
// value is bit-identical to floatprint.Parse on the same token, with
// IEEE range semantics (out-of-range tokens produce ±Inf, not errors).
//
// A malformed token before the first output block produces a 400 whose
// text carries the stream-level record index and byte offset; after
// output has started the handler aborts the connection, the same
// honesty contract as /v1/batch.  The request context, bounded by
// RequestTimeout, cancels between blocks.
func (s *Server) handleBatchParse(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBatchBytes)
	st := &batchStream{s: s, w: w, ctx: ctx}
	pw := &packedWriter{st: st}
	defer pw.release()
	conv := spanOf(w).StartChild("convert")
	var parsed int64
	defer func() {
		conv.SetAttrInt("values", parsed)
		conv.End()
	}()
	var err error
	if parsed, err = s.pool.ParseAll(ctx, body, pw); err != nil {
		st.fail(err)
		return
	}
	if err := pw.commit(); err != nil {
		return // the client went away mid-write; nothing left to report
	}
	if !st.started {
		// No values at all: still a committed, well-typed empty response.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
	}
}

// packedWriter is handleBatchParse's response sink.  ParseAll writes
// the failing block's parsed prefix before reporting a malformed token,
// so the first block's bytes are held back until a second block (or a
// clean finish) proves the stream: a bad token in block one still maps
// to a located 400, the same first-block buffering /v1/batch gets from
// its value accumulator, at a bounded cost (8 output bytes per value of
// one input block).  From the second block on, each write streams with
// a flush.  ParseAll reuses the buffer it writes, so the held block is
// a copy, in a buffer from heldBlocks.
type packedWriter struct {
	st        *batchStream
	first     *[]byte
	haveFirst bool
	committed bool
}

func (pw *packedWriter) Write(p []byte) (int, error) {
	if !pw.committed && !pw.haveFirst {
		pw.first = heldBlocks.Get()
		*pw.first = append((*pw.first)[:0], p...)
		pw.haveFirst = true
		return len(p), nil
	}
	if err := pw.commit(); err != nil {
		return 0, err
	}
	return pw.send(p)
}

// commit releases the held first block.  Write calls it when a second
// block arrives; the handler calls it on clean completion.
func (pw *packedWriter) commit() error {
	pw.committed = true
	if !pw.haveFirst {
		return nil
	}
	pw.haveFirst = false
	_, err := pw.send(*pw.first)
	return err
}

// release returns the held block's buffer to heldBlocks.  The handler
// defers it, so it runs after ParseAll, its only writer, has returned.
func (pw *packedWriter) release() {
	if pw.first != nil {
		heldBlocks.Put(pw.first)
	}
}

func (pw *packedWriter) send(p []byte) (int, error) {
	st := pw.st
	if !st.started {
		st.w.Header().Set("Content-Type", "application/octet-stream")
		st.started = true
	}
	n, err := st.w.Write(p)
	if err == nil {
		if f, ok := st.w.(http.Flusher); ok {
			f.Flush()
		}
	}
	return n, err
}

// handleHealthz serves liveness; it bypasses the limiter so health
// checks keep passing while the service sheds load (shedding is the
// designed overload behavior, not ill health).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}
