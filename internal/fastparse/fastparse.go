// Package fastparse is the read-side analogue of the print-side fast
// paths: an Eisel–Lemire conversion that turns a base-10 literal into a
// correctly rounded binary64 (or binary32) with one 128-bit multiply,
// certifying its own result and declining whenever it cannot.
//
// The structure mirrors the printing paper's estimate-then-verify shape
// (§3.2's two-flop scale estimate with a cheap fixup): a truncated
// 128-bit product of the decimal significand with a precomputed power of
// ten *estimates* the binary significand, and the bits below the
// rounding cut certify whether the estimate is beyond doubt.  Following
// Mushtak & Lemire ("Fast Number Parsing Without Fallback"), the only
// inputs the certificate cannot decide are genuine round-to-even ties
// and a provably thin band of truncated products — everything else is
// exact without any big-integer arithmetic.
//
// Every entry — Parse64, Parse32, ParseDirected64 and the batch
// engine's ParseToken64 — reads its input with one scanner, scanToken
// (block.go), and shares its grammar: [+|-] digits with at most one
// point, then an optional e/E exponent.
//
// The contract with the caller is decline-don't-error: each entry
// either certifies a correctly rounded result (ok=true) or reports
// ok=false for *any* reason — syntax outside that grammar ('#' marks
// and '@' exponents included), uncertainty, ties, overflow into Inf,
// underflow into the subnormal range, an exponent outside the table.
// The caller falls back to the exact big-integer reader, which also
// keeps every error message and range condition byte-identical to the
// pre-fast-path behavior.
package fastparse

import (
	"math"
	"math/bits"
)

// maxExponent mirrors internal/reader's exponent-literal cap.  An
// exponent whose digits accumulate past it makes ParseText fail, so the
// scanner declines there and lets the exact reader produce the error.
const maxExponent = 1 << 24

// decimal is the scanned form of a literal: a 19-digit-or-fewer
// significand with the remembered base-10 scale, value = man × 10^exp10
// (negated when neg).  trunc records that at least one nonzero digit
// beyond the 19th was dropped, so man underestimates the true
// significand by less than one unit in its last place.
type decimal struct {
	man   uint64
	exp10 int
	nd    int
	neg   bool
	trunc bool
}

// scanWhole scans all of s with scanToken.  A token that ends before the
// last byte, at a separator, declines, so "1 2" is no number here.  The
// conversion does not copy s: scanToken neither keeps nor writes b.
func scanWhole(s string) (decimal, bool) {
	d, n, ok := scanToken([]byte(s))
	return d, ok && n == len(s)
}

// Parse64 converts a base-10 literal to the binary64 nearest to its
// value under round-to-nearest-even.  digits is the number of
// significant decimal digits consumed (for telemetry).  ok=false means
// the fast path declines — for any reason — and the caller must use the
// exact reader; when ok=true the result is certified identical to the
// exact reader's.
func Parse64(s string) (f float64, digits int, ok bool) {
	d, ok := scanWhole(s)
	if !ok {
		return 0, 0, false
	}
	if f, ok = finish64(d); !ok {
		return 0, 0, false
	}
	return f, d.nd, true
}

// Parse32 is Parse64 targeting binary32: one rounding, directly to
// single precision.
func Parse32(s string) (f float32, digits int, ok bool) {
	d, ok := scanWhole(s)
	if !ok {
		return 0, 0, false
	}
	if d.man == 0 {
		return math.Float32frombits(uint32(signBit(d.neg) >> 32)), d.nd, true
	}
	f, ok = eiselLemire32(d.man, d.exp10, d.neg)
	if !ok {
		return 0, 0, false
	}
	if d.trunc {
		g, gok := eiselLemire32(d.man+1, d.exp10, d.neg)
		if !gok || math.Float32bits(f) != math.Float32bits(g) {
			return 0, 0, false
		}
	}
	return f, d.nd, true
}

func signBit(neg bool) uint64 {
	if neg {
		return 1 << 63
	}
	return 0
}

// eiselLemire64 rounds man × 10^exp10 to binary64, or declines.  man
// must be nonzero.  The shape follows the published algorithm (Lemire,
// "Number Parsing at a Gigabyte per Second", with the Mushtak–Lemire
// tightening): normalize man, take the 128-bit truncated product with
// the tabulated significand of 10^exp10, and read the answer off the top
// bits — declining only when the truncated tail could straddle the
// rounding cut or the value leaves the normal range.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	// The binary exponent estimate: floor(exp10·log₂10) computed in
	// fixed point (217706/2¹⁶ ≈ log₂10), plus the float64 bias and the
	// 64 bits the normalized product carries above the binary point.
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	xHi, xLo := bits.Mul64(man, pow10[exp10-minExp10][1])
	if xHi&0x1FF == 0x1FF && xLo+man < xLo {
		// The 9 bits below the widest possible rounding cut are all
		// ones and the low half is within one man of carrying into
		// them: the truncated tail of the infinite product could flip
		// the rounded result.  Refine with the next 64 table bits.
		yHi, yLo := bits.Mul64(man, pow10[exp10-minExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		// Mushtak & Lemire prove 10^q significands never sit close
		// enough to a 128-bit boundary for this second test to fail on
		// real table entries — it is kept as a safety net.
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < yLo {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// The product's top bit decides whether 53+1 result bits start at
	// bit 63 or 62; fold that into the exponent.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Exact tie: the discarded bits are exactly half an ulp and the
	// kept bits end in 01 — round-to-even cannot be decided from a
	// truncated product, so decline (the tie band is the one case the
	// no-fallback tightening leaves to the exact reader).
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// Round half-up (ties were declined above, so this is half-even).
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// Decline Inf/NaN territory and the subnormal range in one unsigned
	// compare (retExp2 ≤ 0 wraps); subnormals round at a different bit
	// position than this code computed.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retMantissa&(1<<52-1) | retExp2<<52 | signBit(neg)
	return math.Float64frombits(retBits), true
}

// eiselLemire32 is eiselLemire64 with binary32 geometry: 24 significand
// bits, bias 127, and a 38-bit uncertainty band below the rounding cut.
func eiselLemire32(man uint64, exp10 int, neg bool) (float32, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+127) - uint64(clz)

	xHi, xLo := bits.Mul64(man, pow10[exp10-minExp10][1])
	if xHi&0x3FFFFFFFFF == 0x3FFFFFFFFF && xLo+man < xLo {
		yHi, yLo := bits.Mul64(man, pow10[exp10-minExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x3FFFFFFFFF == 0x3FFFFFFFFF && mergedLo+1 == 0 && yLo+man < yLo {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	msb := xHi >> 63
	retMantissa := xHi >> (msb + 38)
	retExp2 -= 1 ^ msb

	if xLo == 0 && xHi&0x3FFFFFFFFF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>24 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0xFF-1 {
		return 0, false
	}
	retBits := uint32(retMantissa&(1<<23-1)) | uint32(retExp2)<<23 | uint32(signBit(neg)>>32)
	return math.Float32frombits(retBits), true
}
