package floatprint

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"floatprint/internal/fastparse"
	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
	"floatprint/internal/stats"
)

// ErrRange reports that a parsed value is outside the float64 range; the
// accompanying result is ±Inf, as IEEE arithmetic would produce.  Parse
// and Parse32 return it wrapped with the offending input, so test with
// errors.Is(err, ErrRange).
var ErrRange = errors.New("floatprint: value out of range")

// Parse reads a number in the options' base with correct rounding under
// the options' reader mode and returns the nearest float64.  It is the
// exact inverse of this package's printing: Parse(Shortest(v)) == v, and
// the same holds for every base and reader mode pair when the options
// match.  '#' marks in the input are read as zeros, so fixed-format output
// parses back directly.  The strings "NaN", "Inf", "Infinity" are
// accepted in any case with an optional sign.  That matches
// strconv.ParseFloat except for NaN: strconv rejects a signed NaN
// ("-nan", "+NaN"), while Parse reads it as NaN.  In bases where every
// letter is itself a valid digit (base ≥ 24 for "inf"/"nan", ≥ 35 for
// "infinity") the string reads as the number it spells.
//
// Base-10 inputs take a certified Eisel–Lemire fast path
// (internal/fastparse) under every reader mode: one kernel truncates the
// value at 53 bits, classifies the dropped remainder, and rounds by the
// exact reader's own rule, subnormal results included.  Everything it
// cannot certify — other bases, '#' marks, '@' exponents, out-of-range
// magnitudes and exponents outside its power table, the rare input whose
// truncated product leaves the remainder's class in doubt — falls back
// to the exact big-integer reader with identical results and errors.  BackendExact in the options forces the exact
// reader for every input.
func Parse(s string, opts *Options) (float64, error) {
	o, err := opts.norm()
	if err != nil {
		return 0, err
	}
	return parse64(s, o, nil)
}

// ParseTraced is Parse recording which path certified the result into tr:
// Backend is TraceBackendFastParse for a certified fast-path parse and
// TraceBackendExactParse (with FastPathMiss set when the fast path was
// attempted first) for the exact reader.  A nil tr is allowed and makes it
// exactly Parse.  Like the print-side *Traced twins, a traced parse is
// bit-identical to its untraced twin and moves the telemetry counters
// exactly as Parse does; the record belongs to the caller.
func ParseTraced(s string, opts *Options, tr *Trace) (float64, error) {
	o, err := opts.norm()
	if err != nil {
		return 0, err
	}
	return parse64(s, o, tr)
}

// parse64 is the common Parse/ParseTraced core under already-normalized
// options.
func parse64(s string, o Options, tr *Trace) (float64, error) {
	if f, ok := parseSpecial(s, o.Base); ok {
		traceSpecial(tr, o.Base)
		return f, nil
	}
	// One certified fast path for every reader mode; BackendExact pins the
	// exact reader (the documented forced-off knob for differential tests).
	fastMiss := false
	if o.Base == 10 && o.Backend != BackendExact {
		mode := o.Reader.reader()
		hit, miss := fastParseCounters(mode)
		if f, nd, ok := fastparse.Read64(s, mode); ok {
			hit.Inc()
			traceFastParse(tr, o, nd)
			return f, nil
		}
		miss.Inc()
		fastMiss = true
	}
	return parseExact64(s, o, tr, fastMiss)
}

// parseExact64 is parse64 past the specials and the fast path: the exact
// reader decides the value and the error.
func parseExact64(s string, o Options, tr *Trace, fastMiss bool) (float64, error) {
	n, err := reader.ParseText(s, o.Base)
	if err != nil {
		// Text errors carry no value: sign and magnitude are unknown, so
		// nothing Inf-shaped may be derived here.
		return 0, fmt.Errorf("floatprint: %w", err)
	}
	v, err := reader.Convert(n, fpformat.Binary64, o.Reader.reader())
	stats.ParseExact.Inc()
	traceExactParse(tr, o, n, fastMiss)
	if err != nil {
		if errors.Is(err, reader.ErrRange) {
			// Only the conversion's own range error carries a saturated
			// result, and only here is v populated: ±Inf under the nearest
			// modes, ±MaxFloat64 under the directed mode truncating that
			// sign (the reader sets class, sign, and mantissa accordingly).
			f, ferr := v.Float64()
			if ferr != nil {
				return infFor(v.Neg), fmt.Errorf("%w (parsing %q)", ErrRange, s)
			}
			return f, fmt.Errorf("%w (parsing %q)", ErrRange, s)
		}
		return 0, fmt.Errorf("floatprint: %w", err)
	}
	return v.Float64()
}

// Parse32 is Parse targeting float32: rounding happens once, directly to
// single precision (no double-rounding through float64).
func Parse32(s string, opts *Options) (float32, error) {
	o, err := opts.norm()
	if err != nil {
		return 0, err
	}
	if f, ok := parseSpecial(s, o.Base); ok {
		return float32(f), nil
	}
	if o.Base == 10 && o.Backend != BackendExact {
		mode := o.Reader.reader()
		hit, miss := fastParseCounters(mode)
		if f, _, ok := fastparse.Read32(s, mode); ok {
			hit.Inc()
			return f, nil
		}
		miss.Inc()
	}
	n, err := reader.ParseText(s, o.Base)
	if err != nil {
		return 0, fmt.Errorf("floatprint: %w", err)
	}
	v, err := reader.Convert(n, fpformat.Binary32, o.Reader.reader())
	stats.ParseExact.Inc()
	if err != nil {
		if errors.Is(err, reader.ErrRange) {
			// As in parseExact64: the reader's saturated result (±Inf, or
			// the largest finite float32 under a truncating directed mode)
			// rides along with ErrRange.
			f, ferr := v.Float32()
			if ferr != nil {
				return float32(infFor(v.Neg)), fmt.Errorf("%w (parsing %q)", ErrRange, s)
			}
			return f, fmt.Errorf("%w (parsing %q)", ErrRange, s)
		}
		return 0, fmt.Errorf("floatprint: %w", err)
	}
	return v.Float32()
}

// fastParseCounters names the hit and miss counters a fast parse under
// mode moves, in either width: the directed pair under the directed
// modes, the nearest pair under the rest.
func fastParseCounters(mode reader.RoundMode) (hit, miss stats.Counter) {
	if mode.Directed() {
		return stats.DirectedFastHits, stats.DirectedFastMisses
	}
	return stats.ParseFastHits, stats.ParseFastMisses
}

// traceFastParse fills tr for a parse certified by the Eisel–Lemire fast
// path: nd significant decimal digits in, one 128-bit multiply, no exact
// arithmetic.
func traceFastParse(tr *Trace, o Options, nd int) {
	if tr == nil {
		return
	}
	tr.Reset()
	tr.Backend = TraceBackendFastParse
	tr.Base = 10
	tr.Mode = o.Reader.String()
	tr.Digits = nd
	tr.NSig = nd
	tr.Iterations = nd
}

// traceExactParse fills tr for a parse decided by the exact big-integer
// reader.
func traceExactParse(tr *Trace, o Options, n reader.Number, fastMiss bool) {
	if tr == nil {
		return
	}
	tr.Reset()
	tr.Backend = TraceBackendExactParse
	tr.FastPathMiss = fastMiss
	tr.Base = o.Base
	tr.Mode = o.Reader.String()
	tr.Digits = len(n.Digits)
	tr.NSig = len(n.Digits)
	tr.K = n.K
}

// parseDigits converts an already-split Digits value back to a float64.
func parseDigits(d Digits) (float64, error) {
	// Dropping the insignificant tail (zeros) does not change the value or
	// the scale: 0.d₁…d_NSig × Bᴷ.
	v, err := reader.Convert(reader.Number{
		Neg:    d.Neg,
		Digits: d.Digits[:d.NSig],
		Base:   d.Base,
		K:      d.K,
	}, fpformat.Binary64, reader.NearestEven)
	if err != nil {
		if errors.Is(err, reader.ErrRange) {
			return infFor(d.Neg), ErrRange
		}
		return 0, err
	}
	return v.Float64()
}

// parseSpecial recognizes the textual specials "nan", "inf", and
// "infinity" (any ASCII case, optional sign) — but only when the word
// could not be a digit string in the requested base.  From base 24 up,
// every letter of "inf" and "nan" is a valid digit (i=18, n=23, f=15),
// and from base 35 up so is all of "infinity" (t=29, y=34); there the
// positional parse must win, exactly as the reader grammar defines it.
func parseSpecial(s string, base int) (float64, bool) {
	t := s
	neg := false
	if t != "" && (t[0] == '+' || t[0] == '-') {
		neg = t[0] == '-'
		t = t[1:]
	}
	// Gate on length first, then fold case without allocating: every
	// input reaches this check before any fast path.
	var word string
	switch {
	case len(t) == 3 && strings.EqualFold(t, "nan"):
		word = "nan"
	case len(t) == 3 && strings.EqualFold(t, "inf"):
		word = "inf"
	case len(t) == 8 && strings.EqualFold(t, "infinity"):
		word = "infinity"
	default:
		return 0, false
	}
	if digitsInBase(word, base) {
		return 0, false
	}
	if word == "nan" {
		return math.NaN(), true
	}
	return infFor(neg), true
}

// digitsInBase reports whether every byte of s (lowercase letters here)
// is a valid digit in the given base.
func digitsInBase(s string, base int) bool {
	for i := 0; i < len(s); i++ {
		if int(s[i]-'a')+10 >= base {
			return false
		}
	}
	return true
}

func infFor(neg bool) float64 {
	if neg {
		return math.Inf(-1)
	}
	return math.Inf(1)
}
