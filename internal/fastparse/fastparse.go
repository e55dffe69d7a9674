// Package fastparse is the read-side analogue of the print-side fast
// paths: one Eisel–Lemire kernel that turns a base-10 literal into the
// binary64 or binary32 the exact reader (internal/reader) returns for it,
// under every reader mode, with one 128-bit multiply for almost every
// input — certifying its own result and declining whenever it cannot.
//
// The structure mirrors the printing paper's estimate-then-verify shape
// (§3.2's two-flop scale estimate with a cheap fixup): a truncated
// product of the decimal significand with a precomputed power of ten
// *estimates* the binary significand, and the bits below the cut
// certify whether the estimate is beyond doubt.  The kernel, truncate,
// answers one question for every mode and width: the significand
// truncated at binary64's 53 bits, and the class of the dropped
// remainder — zero, below half, exactly half or above half.  One
// rounding step serves both widths, and its rule is reader.RoundsUp, the
// rule the exact reader's quotient rounding applies, so the two readers
// cannot drift; binary32 rounds the 53 bits at bit 29, with the kernel's
// class as a sticky bit, so no value rounds twice.
//
// Mushtak & Lemire ("Fast Number Parsing Without Fallback") show why one
// truncated product decides the class, split by the decimal exponent q:
//
//   - 0 ≤ q ≤ 55: the tabulated 128-bit significand of 10^q is 5^q
//     exactly (bitlen ≤ 128), so the full 192-bit product is the exact
//     scaled value and every class, ties included, is read off.
//   - q ≥ 56: the table truncates, so the product underestimates by less
//     than one (normalized) multiplicand.  The value's odd part carries
//     5^q ≥ 5⁵⁶ > 2⁵⁴, so it is never exact and never a tie; the kernel
//     declines only where the shortfall could carry across the cut or
//     across half.
//   - q < 0: the table rounds up, so the product *over*estimates by less
//     than one multiplicand.  Outside the band one multiplicand above
//     zero or above half the class is certain.  Inside it the value may
//     be exact or a tie, which happens only for dyadic inputs (5^−q
//     divides the significand, possible only for −q ≤ 27); those are
//     finished exactly with integer bits, and the rest decline.
//
// Every entry — Read64, Read32, the nearest-even Parse64, the directed
// ParseDirected64 and the batch engine's ParseToken64 — reads its input
// with one scanner, scanToken (block.go), and shares its grammar:
// [+|-] digits with at most one point, then an optional e/E exponent.
//
// The contract with the caller is decline-don't-error: each entry
// either certifies the exact reader's result (ok=true) — including that
// the exact reader reports no error for the input — or reports ok=false
// for *any* reason: syntax outside that grammar ('#' marks and '@'
// exponents included), uncertainty, overflow into Inf, underflow into
// the subnormal range, a directed truncation onto the largest finite
// value (which the exact reader pairs with ErrRange), an exponent
// outside the table.  The caller falls back to the exact big-integer
// reader, which keeps every error message and range condition
// byte-identical to the pre-fast-path behavior.
package fastparse

import (
	"math"
	"math/bits"

	"floatprint/internal/reader"
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

// Read64 converts a base-10 literal to the binary64 the exact reader
// returns for it under mode.  digits is the number of significant
// decimal digits consumed (for telemetry).  ok=false means the fast path
// declines — for any reason — and the caller must use the exact reader.
func Read64(s string, mode reader.RoundMode) (f float64, digits int, ok bool) {
	d, ok := scanWhole(s)
	if !ok {
		return 0, 0, false
	}
	b, ok := round[uint64](&d, mode)
	if !ok {
		return 0, 0, false
	}
	return math.Float64frombits(b), d.nd, true
}

// Read32 is Read64 targeting binary32: one rounding, directly to single
// precision.
func Read32(s string, mode reader.RoundMode) (f float32, digits int, ok bool) {
	d, ok := scanWhole(s)
	if !ok {
		return 0, 0, false
	}
	b, ok := round[uint32](&d, mode)
	if !ok {
		return 0, 0, false
	}
	return math.Float32frombits(b), d.nd, true
}

// Parse64 is Read64 under round-to-nearest-even.
func Parse64(s string) (f float64, digits int, ok bool) { return Read64(s, reader.NearestEven) }

// ParseDirected64 is Read64 under directed rounding toward +∞
// (towardPos) or −∞.
func ParseDirected64(s string, towardPos bool) (f float64, digits int, ok bool) {
	if towardPos {
		return Read64(s, reader.TowardPosInf)
	}
	return Read64(s, reader.TowardNegInf)
}

// round is the rounding step of both widths: it rounds d under mode to
// the IEEE binary64 (T = uint64) or binary32 (T = uint32) bits the exact
// reader returns, or declines.  The subnormal range and Inf belong to
// the exact reader, and so does a directed truncation onto the largest
// finite value from above, which IEEE (and the exact reader) signals as
// overflow.  The significand stays at binary64's scale until the
// encoding's final shift, so binary32 rounds at bit cut of the kernel's
// 53 bits, with the kernel's class as the sticky bit of the bits below:
// no value rounds twice.  Each width compiles to its own instantiation
// with its constants folded; passing them as arguments instead made
// BenchmarkParseToken64 about 5% slower.
func round[T uint32 | uint64](d *decimal, mode reader.RoundMode) (T, bool) {
	// cut is how many of the kernel's 53 bits the width drops; inf is its
	// all-ones biased exponent.
	cut, inf := uint(53-24), uint64(0xFF)
	if uint64(^T(0)) == math.MaxUint64 {
		cut, inf = 0, 0x7FF
	}
	// The sign bit sits just above the exponent field: one place above
	// inf, at the exponent's scale.
	sign := b2u(d.neg) * (inf + 1)
	if d.man == 0 {
		// Every digit was zero: exactly ±0 at any scale, in any mode.
		return T(sign << 52 >> cut), true
	}
	mant, exp2, class, ok := truncate(d.man, d.exp10)
	if !ok {
		return 0, false
	}
	unit := uint64(1) << cut
	if cut != 0 {
		class = classOf(2*(mant&(unit-1))|b2u(class != reader.Zero), unit)
		mant &^= unit - 1
		exp2 -= 1023 - inf>>1
	}
	up := b2u(reader.RoundsUp(class, mode, d.neg, mant&unit != 0))
	mant += up << cut
	if mant>>53 != 0 {
		mant >>= 1
		exp2++
	}
	// Inf/NaN territory and the subnormal range in one unsigned compare
	// (exp2 ≤ 0 wraps): subnormals round at a coarser bit than the cut.
	if exp2-1 >= inf-1 {
		return 0, false
	}
	// mode.Directed() first: it is the same on every call of a stream, so
	// the test stays off the data-dependent branches.
	if mode.Directed() && up == 0 && class != reader.Zero && exp2 == inf-1 && mant == 1<<53-unit {
		return 0, false
	}
	b := ((sign|exp2)<<52 | mant&(1<<52-1)) >> cut
	if d.trunc {
		// man stands for a value strictly inside (man, man+1) × 10^exp10.
		// Rounding is monotone: when both ends round to the same bits,
		// every value between them does too.
		next := decimal{man: d.man + 1, exp10: d.exp10, neg: d.neg}
		c, ok := round[T](&next, mode)
		return T(b), ok && c == T(b)
	}
	return T(b), true
}

// truncate is the read kernel.  It cuts the nonzero man × 10^q at
// binary64's 53 bits and returns the truncated significand (top bit
// set), its biased exponent, and the class of the remainder below the
// cut — or declines.  The exponent is not range-checked: the caller
// rounds first.  One multiply decides the class unless the bits below
// the cut in its top word sit at 0, half−1, half or all ones: anything
// else is at least one unit from zero, half and the cut, and the rest
// of the product and the table's error each move it by less than one.
func truncate(man uint64, q int) (mant, exp2 uint64, class reader.Class, ok bool) {
	if uint(q-minExp10) >= uint(len(pow10)) {
		return 0, 0, 0, false
	}
	clz := uint(bits.LeadingZeros64(man)) & 63
	nman := man << clz
	hi, mid := bits.Mul64(nman, pow10[q-minExp10][1])
	// Wherever the cut falls, those four values are exactly the ones
	// whose 9 bits below the half bit are all zeros or all ones; the test
	// on 9 bits sends a few more inputs to settle, which decides any.
	if (hi+1)&0x1FF <= 1 {
		return settle(nman, clz, q, hi, mid)
	}
	// The product's top bit decides whether the 53 kept bits start at bit
	// 63 or 62 of hi; the bit below them is the half bit.
	msb := uint(hi>>63) & 1
	return hi >> (10 + msb), exponent(q, clz, msb), reader.BelowHalf + reader.Class(hi>>(9+msb)&1)*2, true
}

// settle is truncate for the inputs whose top product word hi:mid
// leaves the class open: it adds in the second table word for the full
// 192-bit product of nman = man<<clz.
func settle(nman uint64, clz uint, q int, hi, mid uint64) (mant, exp2 uint64, class reader.Class, ok bool) {
	c, lo := bits.Mul64(nman, pow10[q-minExp10][0])
	mid, c = bits.Add64(mid, c, 0)
	hi += c
	msb := uint(hi>>63) & 1
	low, half := hi&(1<<(msb+10)-1), uint64(1)<<(msb+9)
	sticky := uint64(1)
	switch {
	case q >= 0 && q <= 55:
		// Exact table entry, exact product: the bits below the cut are the
		// whole remainder.
		sticky = b2u(mid|lo != 0)
	case q > 55:
		// The true product exceeds this one by less than nman: decline if
		// that could carry low across half or the cut.
		if (low+1)&(half-1) == 0 && mid == math.MaxUint64 && lo+nman < lo {
			return 0, 0, 0, false
		}
	default:
		// The true product falls short of this one by less than nman:
		// within that of zero or half only a dyadic value is certain.
		if low&^half == 0 && mid == 0 && lo < nman {
			return dyadic(nman>>clz, q)
		}
	}
	return hi >> (msb + 10), exponent(q, clz, msb), classOf(2*low|sticky, 2*half), true
}

// exponent is the biased binary64 exponent of the 53 bits cut from the
// product of man<<clz and the table entry for 10^q, whose top bit is
// msb.  ⌊217706·q/2^16⌋ = ⌊q·log2(10)⌋ for every q in the table.
func exponent(q int, clz, msb uint) uint64 {
	return uint64(217706*q>>16+64+1023) - uint64(clz) - uint64(1^msb)
}

// pow5 holds 5^0..5^27, every power of five representable in a uint64.
// 5^27 < 2^64 ≤ 5^28, so a 19-digit significand divisible by 5^k forces
// k ≤ 27 — the complete dyadic window for q < 0.
var pow5 = [28]uint64{
	1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625,
	48828125, 244140625, 1220703125, 6103515625, 30517578125,
	152587890625, 762939453125, 3814697265625, 19073486328125,
	95367431640625, 476837158203125, 2384185791015625, 11920928955078125,
	59604644775390625, 298023223876953125, 1490116119384765625,
	7450580596923828125,
}

// dyadic finishes man × 10^q for q < 0 when 5^−q divides man, and
// declines otherwise.  The value is then exactly m × 2^q with
// m = man/5^−q, so integer bits give the cut and the remainder; the
// biased exponent lands in [996, 1085], always a normal binary64.
func dyadic(man uint64, q int) (mant, exp2 uint64, class reader.Class, ok bool) {
	if -q >= len(pow5) || man%pow5[-q] != 0 {
		return 0, 0, 0, false
	}
	m := man / pow5[-q]
	n := bits.Len64(m)
	exp2 = uint64(q + n - 1 + 1023)
	if n <= 53 {
		return m << uint(53-n), exp2, reader.Zero, true
	}
	sh := uint(n - 53)
	return m >> sh, exp2, classOf(2*(m&(1<<sh-1)), 1<<sh), true
}

// classOf places a dropped remainder against half of the last kept
// place.  r is the remainder's leading bits doubled, plus a sticky bit
// set when anything below them is nonzero; halfR is half the place at
// r's scale, doubled.  No branch depends on r.
func classOf(r, halfR uint64) reader.Class {
	return reader.Class(b2u(r != 0) + b2u(r >= halfR) + b2u(r > halfR))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
