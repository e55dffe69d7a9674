package floatprint

import (
	"fmt"
	"math"

	"floatprint/internal/core"
	"floatprint/internal/fastpath"
	"floatprint/internal/fpformat"
	"floatprint/internal/ryu"
	"floatprint/internal/stats"
)

// Class labels what a Digits value represents.
type Class int

const (
	// Finite is an ordinary nonzero number.
	Finite Class = iota
	// IsZero is ±0.
	IsZero
	// IsInf is ±infinity.
	IsInf
	// IsNaN is not-a-number.
	IsNaN
)

// Digits is a converted number: ±0.d₁d₂…dₙ × BaseᴷK when Class is Finite.
// Digits[i] holds digit *values* (0..Base-1), not ASCII.  Digits[NSig:]
// are insignificant: the paper's '#' marks, replaceable by any digits
// without changing the value read back.  Free-format results always have
// NSig == len(Digits).
//
// A Digits value is immutable by convention and safe to share between
// goroutines; all conversion entry points in this package are themselves
// goroutine-safe.
type Digits struct {
	Class  Class
	Neg    bool
	Digits []byte
	K      int
	NSig   int
	Base   int
}

// ShortestDigits converts v to the shortest digit string that reads back
// to v under the options' reader rounding assumption (free format).
func ShortestDigits(v float64, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return shortestValueTraced(v, false, o, nil)
}

// ShortestDigits32 is ShortestDigits for float32 values; the shorter
// mantissa yields shorter output (e.g. float32 0.1 prints as "0.1" with
// far fewer digits than its float64 widening would need).
func ShortestDigits32(v float32, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return shortestValueTraced(float64(v), true, o, nil)
}

// shortestValueTraced runs the free-format conversion of v — a binary64
// value, or when f32 is set a binary32 value widened to float64 — under
// already-normalized options, filling tr (nil allowed) with the
// conversion's execution record.  A finite nonzero value of a
// kernel-shaped request goes to its Ryū kernel (backend.go); every other
// request runs the exact core, which prints the directed modes'
// one-sided bounds with its floor and ceiling loops.  The telemetry
// counters advance where each event happens, so a nil record counts
// exactly like a non-nil one.
func shortestValueTraced(v float64, f32 bool, o Options, tr *Trace) (Digits, error) {
	neg := math.Signbit(v)
	if a := math.Abs(v); kernelShape(o) && a > 0 && a <= math.MaxFloat64 {
		var buf [ryu.BufLen]byte
		n, k := kernelShortest(buf[:], a, f32, neg, o.Reader)
		kernelHits(o.Reader).Inc()
		if tr != nil {
			tr.Reset()
			tr.Backend = TraceBackendRyu
			tr.Base = 10
			tr.Mode = o.Reader.String()
			tr.Iterations = n
			tr.K = k
			tr.Digits = n
			tr.NSig = n
		}
		return kernelDigits(buf[:], n, k, neg), nil
	}
	val := fpformat.DecodeFloat64(v)
	if f32 {
		val = fpformat.DecodeFloat32(float32(v))
	}
	if d, done := specialDigits(val, o.Base); done {
		traceSpecial(tr, o.Base)
		return d, nil
	}
	var res core.Result
	var err error
	switch {
	case !o.Reader.directed():
		res, err = core.FreeFormatTraced(abs(val), o.Base, core.ScalingEstimate, o.Reader.core(), tr)
	case o.Reader.printsAbove(neg):
		res, err = core.CeilFormat(abs(val), o.Base, core.ScalingEstimate)
	default:
		res, err = core.FloorFormat(abs(val), o.Base, core.ScalingEstimate)
	}
	if err != nil {
		return Digits{}, err
	}
	stats.ExactFree.Inc()
	d := fromResult(res, neg, o.Base)
	if tr != nil && o.Reader.directed() {
		// The one-sided loops keep no record of their own.
		tr.Reset()
		tr.Backend = TraceBackendExactFree
		tr.Base = o.Base
		tr.Mode = o.Reader.String()
		tr.K = d.K
		tr.Digits = len(d.Digits)
		tr.NSig = d.NSig
	}
	return d, nil
}

// FixedDigits converts v to exactly n significant digit positions,
// correctly rounded, with insignificant trailing positions counted out of
// NSig (fixed format, relative position).  n must be positive.
func FixedDigits(v float64, n int, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return fixedValueTraced(fpformat.DecodeFloat64(v), n, o, nil)
}

// FixedDigits32 is FixedDigits for float32 values.
func FixedDigits32(v float32, n int, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return fixedValueTraced(fpformat.DecodeFloat32(v), n, o, nil)
}

// fixedValueTraced runs the fixed-format conversion under
// already-normalized options, filling tr (nil allowed).  The digit count
// is validated here, at the public boundary, for every value class —
// including ±0, whose zero-padding path would otherwise silently accept a
// nonsensical count.
func fixedValueTraced(val fpformat.Value, n int, o Options, tr *Trace) (Digits, error) {
	if n <= 0 {
		return Digits{}, fmt.Errorf("floatprint: digit count %d must be positive", n)
	}
	if d, done := specialDigits(val, o.Base); done {
		traceSpecial(tr, o.Base)
		if d.Class == IsZero {
			d.Digits = make([]byte, n)
			d.K = 1
			d.NSig = n
		}
		return d, nil
	}
	// Gay's fast-path heuristic (paper §5): when the digit count is small
	// and extended-float arithmetic can *certify* its result, skip the
	// exact algorithm.  The certificate guarantees identical output; the
	// exact path below handles everything the fast path declines, and
	// everything BackendExact pins there.
	fastMiss := false
	if kernelShape(o) && val.Fmt == fpformat.Binary64 {
		v, verr := abs(val).Float64()
		if verr == nil {
			if digits, k, ok := fastpath.TryFixed(v, n); ok {
				stats.GayHits.Inc()
				if tr != nil {
					tr.Reset()
					tr.Backend = TraceBackendGay
					tr.Base = 10
					tr.Mode = o.Reader.String()
					tr.RelativeN = n
					tr.Iterations = len(digits)
					tr.K = k
					tr.Digits = len(digits)
					tr.NSig = n
				}
				return Digits{
					Class: Finite, Neg: val.Neg,
					Digits: digits, K: k, NSig: n, Base: 10,
				}, nil
			}
			stats.GayMisses.Inc()
			fastMiss = true
		}
	}
	res, err := core.FixedFormatRelativeTraced(abs(val), o.Base, o.Reader.core(), n, tr)
	if err != nil {
		return Digits{}, err
	}
	if tr != nil {
		tr.FastPathMiss = fastMiss
	}
	stats.ExactFixed.Inc()
	return fromResult(res, val.Neg, o.Base), nil
}

// FixedPositionDigits converts v rounded at the absolute digit position
// pos: the last digit has weight Base^pos, so pos = -2 stops at the
// hundredths digit and pos = 3 at the thousands digit.
func FixedPositionDigits(v float64, pos int, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	return fixedPositionValueTraced(fpformat.DecodeFloat64(v), pos, o, nil)
}

func fixedPositionValueTraced(val fpformat.Value, pos int, o Options, tr *Trace) (Digits, error) {
	if d, done := specialDigits(val, o.Base); done {
		traceSpecial(tr, o.Base)
		if d.Class == IsZero {
			d.Digits = []byte{0}
			d.K = pos + 1
			d.NSig = 1
		}
		return d, nil
	}
	res, err := core.FixedFormatTraced(abs(val), o.Base, o.Reader.core(), pos, tr)
	if err != nil {
		return Digits{}, err
	}
	stats.ExactFixed.Inc()
	return fromResult(res, val.Neg, o.Base), nil
}

// abs strips the sign: the core algorithms operate on positive values.
func abs(v fpformat.Value) fpformat.Value {
	v.Neg = false
	return v
}

func specialDigits(v fpformat.Value, base int) (Digits, bool) {
	switch v.Class {
	case fpformat.Zero:
		return Digits{Class: IsZero, Neg: v.Neg, Base: base}, true
	case fpformat.Inf:
		return Digits{Class: IsInf, Neg: v.Neg, Base: base}, true
	case fpformat.NaN:
		return Digits{Class: IsNaN, Base: base}, true
	}
	return Digits{}, false
}

func fromResult(res core.Result, neg bool, base int) Digits {
	class := Finite
	if allZero(res.Digits) {
		// A coarse fixed position can round a nonzero value to zero
		// (FixedPosition(5, 2) is 0); classify so rendering says "0"
		// rather than position-padded zeros.
		class = IsZero
	}
	return Digits{
		Class:  class,
		Neg:    neg,
		Digits: res.Digits,
		K:      res.K,
		NSig:   res.NSig,
		Base:   base,
	}
}

func allZero(digits []byte) bool {
	for _, d := range digits {
		if d != 0 {
			return false
		}
	}
	return true
}

// Shortest returns the shortest base-10 string that strconv.ParseFloat
// (or any IEEE nearest-even reader) parses back to exactly v.
func Shortest(v float64) string {
	d, err := ShortestDigits(v, nil)
	if err != nil {
		panic("floatprint: " + err.Error()) // unreachable with default options
	}
	return d.String()
}

// Shortest32 is Shortest for float32.
func Shortest32(v float32) string {
	d, err := ShortestDigits32(v, nil)
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	return d.String()
}

// AppendShortest appends the Shortest rendering of v to dst and returns
// the extended slice.  The Ryū kernel decides every finite value, so it
// performs no heap allocation beyond growing dst: the digits are
// generated into a stack buffer and rendered directly into dst, and a
// caller that reuses dst serializes floats with zero allocations per
// call.  Use AppendShortestWith to select a backend or rendering options
// explicitly.
func AppendShortest(dst []byte, v float64) []byte {
	dst, hit := appendShortestOpts(dst, v, defaultOptions())
	if hit {
		stats.RyuHits.Inc()
	}
	return dst
}

// Fixed returns v correctly rounded to n significant digits in base 10,
// with '#' marks past the point of significance.  It panics if n is not
// positive; use FixedDigits to handle the error instead.
func Fixed(v float64, n int) string {
	d, err := FixedDigits(v, n, nil)
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	return d.String()
}

// AppendFixed appends the Fixed rendering of v at n significant digits to
// dst and returns the extended slice.  Like Fixed it panics when n is not
// positive.
func AppendFixed(dst []byte, v float64, n int) []byte {
	d, err := FixedDigits(v, n, nil)
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	return d.appendRender(dst, defaultOptions())
}

// FixedPosition returns v correctly rounded at absolute digit position pos
// in base 10 (pos = -2 rounds at hundredths), with '#' marks past the
// point of significance.
func FixedPosition(v float64, pos int) string {
	d, err := FixedPositionDigits(v, pos, nil)
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	return d.String()
}

// Format renders v under the given options (free format).
func Format(v float64, opts *Options) (string, error) {
	o, err := opts.norm()
	if err != nil {
		return "", err
	}
	d, err := shortestValueTraced(v, false, o, nil)
	if err != nil {
		return "", err
	}
	return d.render(o), nil
}

// FormatFixed renders v to n significant digits under the given options.
func FormatFixed(v float64, n int, opts *Options) (string, error) {
	o, err := opts.norm()
	if err != nil {
		return "", err
	}
	d, err := fixedValueTraced(fpformat.DecodeFloat64(v), n, o, nil)
	if err != nil {
		return "", err
	}
	return d.render(o), nil
}

// FormatFixedPosition renders v rounded at absolute position pos under the
// given options.
func FormatFixedPosition(v float64, pos int, opts *Options) (string, error) {
	o, err := opts.norm()
	if err != nil {
		return "", err
	}
	d, err := fixedPositionValueTraced(fpformat.DecodeFloat64(v), pos, o, nil)
	if err != nil {
		return "", err
	}
	return d.render(o), nil
}

// Value reconstructs the float64 nearest to the digits (a convenience for
// verifying round-trips; equivalent to Parse of the rendering).
func (d Digits) Value() (float64, error) {
	switch d.Class {
	case IsZero:
		if d.Neg {
			return math.Copysign(0, -1), nil
		}
		return 0, nil
	case IsInf:
		if d.Neg {
			return math.Inf(-1), nil
		}
		return math.Inf(1), nil
	case IsNaN:
		return math.NaN(), nil
	}
	return parseDigits(d)
}
