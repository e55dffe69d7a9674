package floatprint

import (
	"math"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/ryu"
	"floatprint/internal/stats"
)

// This file is the shortest-path dispatch: the one place that decides
// whether a free-format conversion attempts a Ryū kernel before the exact
// Burger & Dybvig core.  Every kernel follows the decline-don't-error
// contract — it either serves a request with output byte-identical to the
// exact core or declines, and a decline always falls through to the exact
// core — so dispatch affects speed and the path mix, never the answer.
//
// Applicability is two-layered.  The static layer below rules the kernels
// out per request shape: they need base 10, a binary64 or binary32 value,
// and BackendAuto.  The reader mode picks the kernel, not whether one
// runs: the four nearest modes share the nearest kernel, which takes its
// endpoint flags from the exact core's own mode table, and the two
// directed modes have one-sided kernels.  The dynamic layer is the
// kernel's own runtime decline (exact-halfway ties), which surfaces as
// ok == false at the call site.

// kernelShape reports whether a normalized request has the shape every
// fast kernel needs — the Ryū kernels and Gay's fixed-format path:
// decimal output, with the fast paths not switched off.
func kernelShape(o Options) bool {
	return o.Base == 10 && o.Backend == BackendAuto
}

// nearestFastpath reports whether the nearest kernel may serve a
// normalized free-format request of a binary64 or binary32 value.  The
// directed reader modes print one-sided half-gap output, a different
// acceptance test; they have their own kernels behind directedFastpath.
func nearestFastpath(o Options) bool {
	return kernelShape(o) && !o.Reader.directed()
}

// directedFastpath reports whether the one-sided Ryū kernels
// (ryu.ShortestBelowInto / ShortestAboveInto) may serve a directed
// shortest conversion: binary64 only (directed float32 printing stays on
// the exact one-sided core), and a request shape the kernels can serve —
// they hard-code decimal arithmetic, so a base-16 request must reach the
// exact core untouched, and BackendExact is the documented way to force
// the certified fast paths off (corpus tests diff the two).
func directedFastpath(o Options, val fpformat.Value) bool {
	return val.Fmt == fpformat.Binary64 && kernelShape(o)
}

// ryuShortest runs the nearest kernel for a positive finite binary64 or
// binary32 val under mode, bumping the hit/miss telemetry.  The digits
// land in buf as ASCII bytes '0'..'9'; buf must hold ryu.BufLen bytes.
func ryuShortest(buf []byte, val fpformat.Value, mode core.ReaderMode) (n, k int, ok bool) {
	// val is finite (specials are classified before any kernel runs), so
	// re-encoding it cannot fail.
	if val.Fmt == fpformat.Binary32 {
		v, _ := val.Float32()
		n, k, ok = ryu.Shortest32Into(buf, v, mode)
	} else {
		v, _ := val.Float64()
		n, k, ok = ryu.ShortestModeInto(buf, v, mode)
	}
	ryuResult(ok).count()
	return n, k, ok
}

// ryuOutcome is what the nearest Ryū kernel did with one value.  The
// append path returns it uncounted, so a single-value caller counts it
// per call and the batch loop sums a run of outcomes and adds each sum
// to the shared counters once.
type ryuOutcome uint8

const (
	ryuNotTried ryuOutcome = iota // a special, or a request outside the kernel's shape
	ryuHit                        // the kernel served the value
	ryuMiss                       // the kernel declined; the exact core decided
)

// ryuResult is the outcome of one kernel attempt.
func ryuResult(ok bool) ryuOutcome {
	if ok {
		return ryuHit
	}
	return ryuMiss
}

// count records r in the hit/miss telemetry.
func (r ryuOutcome) count() {
	switch r {
	case ryuHit:
		stats.RyuHits.Inc()
	case ryuMiss:
		stats.RyuMisses.Inc()
	}
}

// kernelDigits converts a kernel result — ASCII digits in buf[:n] — into
// a base-10 Digits value.
func kernelDigits(buf []byte, n, k int, neg bool) Digits {
	digits := make([]byte, n)
	for i := range digits {
		digits[i] = buf[i] - '0' // ASCII back to digit values
	}
	return Digits{Class: Finite, Neg: neg, Digits: digits, K: k, NSig: n, Base: 10}
}

// AppendShortestWith is AppendShortest under explicit options: it appends
// the shortest rendering of v to dst using the options' backend, reader
// assumption, and notation.  Like AppendShortest it performs no heap
// allocation beyond growing dst when a Ryū kernel serves the value.  It
// panics on invalid options; use ShortestDigits plus Digits.Append to
// handle the error instead.
func AppendShortestWith(dst []byte, v float64, opts *Options) []byte {
	o, err := opts.norm()
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	dst, r := appendShortestOpts(dst, v, o)
	r.count()
	return dst
}

// appendShortestOpts is the shared allocation-free append path under
// normalized options: specials inline, then the nearest kernel into a
// stack buffer, then the exact fallback for everything declined.  It
// returns the kernel's outcome uncounted, for the caller to count per
// call or sum over a batch; the exact fallback counts its own events.
func appendShortestOpts(dst []byte, v float64, o Options) ([]byte, ryuOutcome) {
	// Specials, inline: these never reach digit generation.
	switch {
	case math.IsNaN(v):
		return append(dst, "NaN"...), ryuNotTried
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...), ryuNotTried
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...), ryuNotTried
	case v == 0:
		if math.Signbit(v) {
			return append(dst, '-', '0'), ryuNotTried
		}
		return append(dst, '0'), ryuNotTried
	}
	r := ryuNotTried
	if nearestFastpath(o) {
		var buf [ryu.BufLen]byte
		n, k, ok := ryu.ShortestModeInto(buf[:], math.Abs(v), o.Reader.core())
		r = ryuResult(ok)
		if ok {
			return appendFastRender(dst, math.Signbit(v), buf[:], n, k, o), r
		}
		// The kernel declined: run the exact core directly rather than
		// trying the kernel again inside shortestValueTraced, so the miss
		// above stays counted exactly once.
		o.Backend = BackendExact
	}
	d, err := shortestValueTraced(fpformat.DecodeFloat64(v), o, nil)
	if err != nil {
		panic("floatprint: " + err.Error()) // unreachable: options validated
	}
	return d.appendRender(dst, o), r
}

// appendFastRender renders a kernel result — ASCII digits in
// buf[:n], all significant, base 10 — without building a Digits value.
// It is Digits.appendRender specialized to that shape: marks can never
// apply (NSig == n), the base-36 alphabet degenerates to ASCII decimal,
// and bulk slice appends replace the per-digit loop.  Output is
// byte-identical to the general renderer; TestFastRenderMatchesDigits
// pins that.
func appendFastRender(dst []byte, neg bool, buf []byte, n, k int, o Options) []byte {
	if neg {
		dst = append(dst, '-')
	}
	notation := o.Notation
	if notation == NotationAuto {
		// Same band as the general renderer; the marked-result clause
		// there (NSig < len) is unreachable here.
		if k < -3 || k > 21 {
			notation = NotationScientific
		} else {
			notation = NotationPositional
		}
	}
	if notation == NotationScientific {
		dst = append(dst, buf[0])
		if n > 1 {
			dst = append(dst, '.')
			dst = append(dst, buf[1:n]...)
		}
		dst = append(dst, 'e')
		// Binary64 exponents span [-324, 308]: at most three digits,
		// rendered directly (the general renderer's strconv.AppendInt
		// produces the same bytes, minus the call).
		e := k - 1
		if e < 0 {
			dst = append(dst, '-')
			e = -e
		}
		switch {
		case e < 10:
			return append(dst, byte('0'+e))
		case e < 100:
			return append(dst, byte('0'+e/10), byte('0'+e%10))
		default:
			return append(dst, byte('0'+e/100), byte('0'+e/10%10), byte('0'+e%10))
		}
	}
	switch {
	case k <= 0:
		dst = append(dst, '0', '.')
		for i := 0; i < -k; i++ {
			dst = append(dst, '0')
		}
		return append(dst, buf[:n]...)
	case k >= n:
		dst = append(dst, buf[:n]...)
		for i := n; i < k; i++ {
			dst = append(dst, '0')
		}
		return dst
	default:
		dst = append(dst, buf[:k]...)
		dst = append(dst, '.')
		return append(dst, buf[k:n]...)
	}
}
