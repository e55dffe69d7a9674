package floatprint

import (
	"math"

	"floatprint/internal/ryu"
	"floatprint/internal/stats"
)

// This file is the shortest-path dispatch: the one place a base-10
// shortest conversion runs a Ryū kernel.  A request has the kernels'
// shape when it asks for base 10 and BackendAuto (kernelShape); then
// the reader mode picks the kernel — the four nearest modes share the
// nearest kernel, which takes its endpoint flags from the exact core's
// own mode table, and the two directed modes have one-sided kernels —
// and the kernel decides the value, binary64 or binary32.  A
// final-digit tie rounds up in the kernel as in the paper's core, so
// every finite value is decided there and is byte-identical to the
// exact Burger & Dybvig core, which runs only for the other shapes
// (another base, BackendExact).  The dispatch affects speed and the
// path mix, never the answer.

// kernelShape reports whether a normalized request has the shape every
// fast kernel needs — the Ryū kernels and Gay's fixed-format path:
// decimal output, with the fast paths not switched off.
func kernelShape(o Options) bool {
	return o.Base == 10 && o.Backend == BackendAuto
}

// kernelShortest is the one call site of the Ryū kernels.  It prints
// the positive finite magnitude v of a kernel-shaped shortest request —
// a binary64 value, or when f32 is set a binary32 value widened to
// float64 — into buf (ASCII digits; ryu.BufLen bytes) under reader r
// and returns the digit count and K.  neg is the value's sign, which
// picks a directed reader's side (ReaderRounding.printsAbove).
func kernelShortest(buf []byte, v float64, f32, neg bool, r ReaderRounding) (n, k int) {
	var ok bool
	switch {
	case !r.directed():
		if f32 {
			n, k, ok = ryu.Shortest32Into(buf, float32(v), r.core())
		} else {
			n, k, ok = ryu.ShortestModeInto(buf, v, r.core())
		}
	case r.printsAbove(neg):
		if f32 {
			n, k, ok = ryu.ShortestAbove32Into(buf, float32(v))
		} else {
			n, k, ok = ryu.ShortestAboveInto(buf, v)
		}
	default:
		if f32 {
			n, k, ok = ryu.ShortestBelow32Into(buf, float32(v))
		} else {
			n, k, ok = ryu.ShortestBelowInto(buf, v)
		}
	}
	if !ok {
		panic("floatprint: Ryū kernel declined a positive finite value") // unreachable
	}
	return n, k
}

// kernelHits is the counter a kernel hit under reader r advances.
func kernelHits(r ReaderRounding) stats.Counter {
	if r.directed() {
		return stats.DirectedRyuHits
	}
	return stats.RyuHits
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
// allocation beyond growing dst when a Ryū kernel serves the value —
// every finite value of a base-10 BackendAuto request, under any reader
// mode.  It panics on invalid options; use ShortestDigits plus
// Digits.Append to handle the error instead.
func AppendShortestWith(dst []byte, v float64, opts *Options) []byte {
	o, err := opts.norm()
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	dst, hit := appendShortestOpts(dst, v, o)
	if hit {
		kernelHits(o.Reader).Inc()
	}
	return dst
}

// appendShortestOpts is the shared allocation-free append path under
// normalized options: specials inline, then a kernel-shaped request
// through kernelShortest into a stack buffer, rendered straight into
// dst, and any other shape through the exact core.  hit reports a
// kernel result, uncounted, for the caller to count per call or sum
// over a batch; the exact path counts its own events.
func appendShortestOpts(dst []byte, v float64, o Options) (_ []byte, hit bool) {
	// Specials, inline: these never reach digit generation.
	switch {
	case math.IsNaN(v):
		return append(dst, "NaN"...), false
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...), false
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...), false
	case v == 0:
		if math.Signbit(v) {
			return append(dst, '-', '0'), false
		}
		return append(dst, '0'), false
	}
	if !kernelShape(o) {
		d, err := shortestValueTraced(v, false, o, nil)
		if err != nil {
			panic("floatprint: " + err.Error()) // unreachable: options validated
		}
		return d.appendRender(dst, o), false
	}
	var buf [ryu.BufLen]byte
	neg := math.Signbit(v)
	n, k := kernelShortest(buf[:], math.Abs(v), false, neg, o.Reader)
	return appendFastRender(dst, neg, buf[:], n, k, o), true
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
