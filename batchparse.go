package floatprint

import (
	"errors"
	"fmt"

	"floatprint/internal/fastparse"
	"floatprint/internal/stats"
)

// BatchSep reports whether c separates tokens in a batch parse stream.
// The batch engine treats newlines (NDJSON), commas (CSV rows of
// numbers), carriage returns (CRLF input), spaces, and tabs uniformly:
// any run of separators delimits tokens, and empty fields are skipped
// rather than errors, so `1,2\r\n3 4\n` parses as four values.
func BatchSep(c byte) bool { return fastparse.IsSep(c) }

// BatchParseError reports the first malformed token in a batch parse:
// Record is its zero-based index among the tokens of the scanned range,
// Offset is the byte offset of its first byte within that range, and
// Err is the per-value parse error for the token (so the message is
// identical to what Parse would report for the same text).
type BatchParseError struct {
	Record int
	Offset int
	Err    error
}

func (e *BatchParseError) Error() string {
	return fmt.Sprintf("batch parse: record %d (byte offset %d): %v", e.Record, e.Offset, e.Err)
}

func (e *BatchParseError) Unwrap() error { return e.Err }

// ParseBatch scans one contiguous byte range of separator-delimited
// base-10 numbers (see BatchSep) and returns the parsed float64 values
// in input order.  Each token goes through the block-at-a-time fast
// scanner — digit runs validated eight bytes per SWAR test and folded
// into the significand eight digits per multiply, then certified by the
// Eisel–Lemire kernel — and any token the block scanner declines goes to
// the specials and the exact reader, so every value is bit-identical to
// Parse(token) under default options.  Out-of-range tokens follow
// Parse's IEEE semantics: the value is ±Inf and scanning continues.
//
// On a malformed token, ParseBatch returns the values parsed before it
// along with a *BatchParseError locating the failure; the error text
// for the token itself matches Parse's.
func ParseBatch(data []byte) ([]float64, error) {
	return AppendParseBatch(nil, data)
}

// AppendParseBatch is ParseBatch appending to dst (the zero-alloc form
// the sharded batch.Pool engine calls with reused scratch slices).  On
// error it returns the values successfully parsed before the failure.
func AppendParseBatch(dst []float64, data []byte) ([]float64, error) {
	stats.BatchParseBlocks.Inc()
	records := 0
	fallbacks := uint64(0)
	var err error
	i := 0
	for {
		for i < len(data) && fastparse.IsSep(data[i]) {
			i++
		}
		if i >= len(data) {
			break
		}
		if f, n, ok := fastparse.ParseToken64(data[i:]); ok {
			// The fused scanner consumed the token through its separator
			// boundary and certified the value — the whole hot path is one
			// pass over the bytes.
			dst = append(dst, f)
			records++
			i += n
			continue
		}
		// The block scanner declined: specials, '#' marks, '@' exponents,
		// subnormal or out-of-range magnitudes, or genuine garbage.
		// Delimit the token the general way and read it as Parse would,
		// minus the fast path it has just failed.
		start := i
		for i < len(data) && !fastparse.IsSep(data[i]) {
			i++
		}
		fallbacks++
		f, perr := parseDeclined(string(data[start:i]))
		if perr != nil && !errors.Is(perr, ErrRange) {
			err = &BatchParseError{Record: records, Offset: start, Err: perr}
			break
		}
		dst = append(dst, f) // ±Inf under IEEE semantics when perr is ErrRange
		records++
	}
	if stats.Enabled() {
		stats.BatchParseValues.Add(uint64(records))
		stats.BatchParseBytes.Add(uint64(i))
		stats.BatchParseFallbacks.Add(fallbacks)
	}
	return dst, err
}

// parseDeclined reads a token the block scanner declined exactly as Parse
// would under default options, without retrying the same scanner and
// kernel: a special, or the exact reader's value and error.
func parseDeclined(s string) (float64, error) {
	if f, ok := parseSpecial(s, 10); ok {
		return f, nil
	}
	return parseExact64(s, defaultOptions(), nil, false)
}
