// The parse side of the batch engine: ParseAll streams separator-
// delimited decimal text in and packed little-endian float64 out, in
// bounded memory, across the Pool's workers.  Each block of input is
// cut at a separator boundary, split into contiguous per-shard ranges
// (boundaries advanced to the next separator so no token straddles two
// shards), scanned by the block-at-a-time kernel
// (floatprint.AppendParseBatch: SWAR-validated 8-digit chunks into the
// Eisel–Lemire certifier, per-value fallback on decline), and written
// as one ordered packed write — so the values are bit-identical to a
// sequential per-value floatprint.Parse loop, whatever the shard count
// or block size.  The block buffer, the per-shard scratch and the
// packed output live in a parseState the Pool keeps between calls.

package batch

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"floatprint"
)

// parseMinShardBytes is the smallest per-shard range worth a goroutine:
// below it, scheduling overhead beats the parallelism.
const parseMinShardBytes = 64 << 10

// parseState is one ParseAll call's buffers, taken from the Pool when
// the call starts and returned when it ends: the block buffer (the carry
// plus fresh reads, capacity ParseBlockBytes), each shard's parsed
// values, the packed output of one block, and the shard cut points and
// errors of one block.  Scratch and output keep the capacity of the
// largest block the Pool has parsed.
type parseState struct {
	buf     []byte
	scratch [][]float64
	out     []byte
	bounds  []int
	errs    []*floatprint.BatchParseError
}

// ParseAll reads separator-delimited base-10 numbers from r (see
// floatprint.BatchSep: newlines, commas, CR, spaces, tabs) and writes
// each value to w as 8 little-endian bytes, in input order.  It returns
// the number of values written.
//
// Memory is bounded by the pool's ParseBlockBytes regardless of input
// length: input is consumed in blocks cut at the last separator, each
// block is sharded across the worker pool, and the block's values reach
// w as one ordered write before the next block is read.  Every value is
// bit-identical to floatprint.Parse on the same token under default
// options, with Parse's IEEE range semantics (out-of-range tokens
// produce ±Inf and parsing continues).
//
// On a malformed token, ParseAll writes the values preceding it and
// returns a *floatprint.BatchParseError whose Record and Offset locate
// the token in the whole stream.  A token longer than MaxTokenBytes is
// rejected the same way, whether or not a separator ends it, rather than
// buffered without bound or handed to the exact reader.  The writer-side
// contract matches WriteAll: whatever reached w when ParseAll returns —
// on success, error, or cancellation — is a prefix of the full output,
// ending on a value boundary.  The buffer handed to w is reused for the
// next block and by later calls, so w must not retain it.
func (p *Pool) ParseAll(ctx context.Context, r io.Reader, w io.Writer) (int64, error) {
	st := p.parseStates.Get()
	// parseBlock64 has joined its shards before any return, so nothing
	// touches st once ParseAll is done with it.
	defer p.parseStates.Put(st)
	var (
		written int64 // values written to w
		recBase int   // values consumed from the stream (for error coordinates)
		offBase int   // bytes consumed from the stream
		// A token longer than the block target grows buf into a new
		// array, which the GC takes after this call; st keeps the
		// block-sized one.
		buf = st.buf[:0]
		eof bool
	)

	for {
		if err := ctx.Err(); err != nil {
			return written, err
		}
		// Fill until the block holds a separator past the target size (or
		// the stream ends).  The carry never contains a separator — it is
		// the suffix after the previous block's last one — so lastSep only
		// needs to watch newly read bytes.  A single token longer than the
		// block target keeps growing the buffer up to MaxTokenBytes;
		// beyond that the stream is not number-shaped and buffering more
		// cannot fix it.
		lastSep := -1
		for !eof {
			if lastSep >= 0 && len(buf) >= p.parseBlock {
				break
			}
			if lastSep < 0 && len(buf) > p.maxToken {
				break
			}
			if len(buf) == cap(buf) {
				grown := make([]byte, len(buf), 2*cap(buf))
				copy(grown, buf)
				buf = grown
			}
			prev := len(buf)
			n, rerr := r.Read(buf[len(buf):cap(buf)])
			buf = buf[:prev+n]
			for i := len(buf) - 1; i >= prev; i-- {
				if floatprint.BatchSep(buf[i]) {
					lastSep = i
					break
				}
			}
			if rerr == io.EOF {
				eof = true
			} else if rerr != nil {
				return written, rerr
			}
		}
		if len(buf) == 0 {
			return written, nil
		}
		if eof && lastSep < 0 {
			lastSep = lastSepIndex(buf) // fill may have been skipped entirely
		}
		cut := lastSep + 1 // consume through the last separator
		if cut == 0 {
			// Without a separator the fill stops only past the cap or at
			// EOF, and a stream's last read may carry EOF with its bytes:
			// the cap holds for the final token too.
			if len(buf) > p.maxToken {
				return written, p.tokenCapError(recBase, offBase)
			}
			cut = len(buf) // final unterminated token
		}
		block := buf[:cut]
		// A token longer than the cap can only sit in a block longer than
		// it, so blocks no longer than the cap (every block under the
		// default configuration) skip the search.  The values before the
		// long token are parsed and written; then the cap error stops the
		// stream where that token begins.
		long := -1
		if len(block) > p.maxToken {
			if long = longToken(block, p.maxToken); long >= 0 {
				block = block[:long]
			}
		}

		vals, perr := p.parseBlock64(block, st)
		// Pack and write everything parsed before any failure: the output
		// prefix contract holds on errors too.
		total := 0
		for _, v := range vals {
			total += len(v)
		}
		if cap(st.out) < 8*total {
			st.out = make([]byte, 0, 8*total)
		}
		out := st.out[:0]
		for _, shard := range vals {
			for _, f := range shard {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
			}
		}
		if len(out) > 0 {
			if _, werr := w.Write(out); werr != nil {
				// Count whole values only; Write's partial-byte count is not
				// meaningful at the value granularity the contract promises.
				return written, werr
			}
			written += int64(total)
		}
		if perr != nil {
			perr.Record += recBase
			perr.Offset += offBase
			return written, perr
		}
		if long >= 0 {
			return written, p.tokenCapError(recBase+total, offBase+long)
		}
		recBase += total
		offBase += cut
		buf = append(buf[:0], buf[cut:]...)
		if eof && len(buf) == 0 {
			return written, nil
		}
	}
}

// tokenCapError is the located error for a token longer than
// MaxTokenBytes that begins at stream offset offset, after record
// values.
func (p *Pool) tokenCapError(record, offset int) *floatprint.BatchParseError {
	return &floatprint.BatchParseError{
		Record: record, Offset: offset,
		Err: fmt.Errorf("floatprint: token exceeds %d bytes", p.maxToken),
	}
}

// longToken returns the offset of the first token in block longer than
// max bytes, or -1.  Offset 0 must begin a token or a separator run.
// From each point start that may begin a token it probes the byte max
// past it and scans back to the nearest separator: none in between means
// the token at start is longer than max, and otherwise every token
// beginning before that separator ends by it.  A block of short tokens
// so costs a few bytes' look per max bytes of input.
func longToken(block []byte, max int) int {
	for start := 0; start+max < len(block); {
		j := start + max
		for j >= start && !floatprint.BatchSep(block[j]) {
			j--
		}
		if j < start {
			return start
		}
		start = j + 1
	}
	return -1
}

// parseBlock64 scans one separator-terminated block across the pool's
// shards into st's scratch and returns the per-shard value slices in
// input order, after every shard goroutine has finished.  On a
// malformed token it returns the values preceding it and a
// *floatprint.BatchParseError with Record/Offset relative to the block.
func (p *Pool) parseBlock64(block []byte, st *parseState) ([][]float64, *floatprint.BatchParseError) {
	shards := p.shards
	if max := len(block)/parseMinShardBytes + 1; shards > max {
		shards = max
	}
	scratch := st.scratch
	// Cut points: each advanced to the next separator so every token is
	// wholly inside one range (a range may begin with separators, which
	// the scanner skips).
	bounds := st.bounds[:shards+1]
	bounds[0], bounds[shards] = 0, len(block)
	for s := 1; s < shards; s++ {
		c := s * len(block) / shards
		if c < bounds[s-1] {
			c = bounds[s-1]
		}
		for c < len(block) && !floatprint.BatchSep(block[c]) {
			c++
		}
		bounds[s] = c
	}

	errs := st.errs[:shards]
	clear(errs)
	if shards <= 1 {
		var err error
		scratch[0], err = floatprint.AppendParseBatch(scratch[0][:0], block)
		return p.collectBlock(scratch[:1], bounds, errs, err)
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var err error
			scratch[s], err = floatprint.AppendParseBatch(scratch[s][:0], block[bounds[s]:bounds[s+1]])
			if err != nil {
				errs[s], _ = err.(*floatprint.BatchParseError)
				if errs[s] == nil {
					errs[s] = &floatprint.BatchParseError{Err: err}
				}
			}
		}(s)
	}
	wg.Wait()
	return p.collectBlock(scratch[:shards], bounds, errs, nil)
}

// collectBlock folds per-shard results into block-order values and the
// first (input-order) error, with Record/Offset adjusted from range- to
// block-relative coordinates.
func (p *Pool) collectBlock(vals [][]float64, bounds []int, errs []*floatprint.BatchParseError, singleErr error) ([][]float64, *floatprint.BatchParseError) {
	if singleErr != nil {
		e, ok := singleErr.(*floatprint.BatchParseError)
		if !ok {
			e = &floatprint.BatchParseError{Err: singleErr}
		}
		errs[0] = e
	}
	records := 0
	for s := range vals {
		if e := errs[s]; e != nil {
			return vals[:s+1], &floatprint.BatchParseError{
				Record: records + e.Record,
				Offset: bounds[s] + e.Offset,
				Err:    e.Err,
			}
		}
		records += len(vals[s])
	}
	return vals, nil
}

// lastSepIndex returns the index of the last separator byte in b, or -1.
func lastSepIndex(b []byte) int {
	for i := len(b) - 1; i >= 0; i-- {
		if floatprint.BatchSep(b[i]) {
			return i
		}
	}
	return -1
}
