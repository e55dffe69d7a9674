// Directed (interval) fast parsing: the Eisel–Lemire machinery with the
// certificate window asked a different question.  The nearest-even path
// needs to prove the *rounded* quotient's digit — where the truncated
// 128-bit product sits relative to the halfway point — and declines the
// thin band where truncation hides the answer.  A directed read needs
// the *truncated* quotient (the 53-bit floor of the true product) plus a
// single bit: is the discarded remainder exactly zero?  Mushtak &
// Lemire's analysis answers both from the same product:
//
//   - 0 ≤ q ≤ 55: the tabulated 128-bit significand of 10^q is 5^q
//     exactly (bitlen ≤ 128), so the full 192-bit product is the exact
//     scaled value — floor and remainder are simply read off.
//   - q ≥ 56: the table truncates, so the product underestimates by less
//     than one (normalized) multiplicand; the floor is still exact
//     unless the low bits sit within one multiplicand of carrying across
//     the 53-bit cut (decline), and the remainder is *always* nonzero —
//     the value's odd part carries 5^q ≥ 5⁵⁶ > 2⁵³, so it can never be a
//     binary64.
//   - q < 0: the table rounds up, so the product *over*estimates by less
//     than one multiplicand.  When the low bits are at least one
//     multiplicand above zero, the floor is exact and the remainder
//     provably nonzero in one test.  Below that the value may be exactly
//     representable: that happens only for dyadic inputs (5^−q divides
//     the significand, possible only for −q ≤ 27), which are finished
//     exactly with integer bit arithmetic; anything else declines.
//
// The caller-facing contract is the package's usual decline-don't-error,
// with one addition for error identity: any result the exact reader
// would accompany with a range error (overflow saturating at MaxFloat64
// under the truncating direction, ±Inf under the outward one, and the
// whole subnormal band) is declined, so the exact reader alone decides
// both the value and the error text.

package fastparse

import (
	"math"
	"math/bits"
)

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

// ParseDirected64 converts a base-10 literal to binary64 under IEEE
// directed rounding toward +∞ (towardPos) or −∞, or declines.  digits is
// the significant-digit count for telemetry.  ok == true certifies the
// result identical to the exact reader's — including that the exact
// reader would report no error for this input; every range condition
// declines so the reader's saturation value and ErrRange text stay
// byte-identical to the pre-fast-path behavior.
func ParseDirected64(s string, towardPos bool) (f float64, digits int, ok bool) {
	d, ok := scanWhole(s)
	if !ok {
		return 0, 0, false
	}
	if d.man == 0 {
		// Every digit was zero: exactly ±0 at any scale, in any direction.
		return math.Float64frombits(signBit(d.neg)), d.nd, true
	}
	// Directed modes are specified on the signed value; on the magnitude
	// they become round-away-from-zero or truncate-toward-zero.
	up := towardPos != d.neg
	f, ok = eiselLemireDirected64(d.man, d.exp10, d.neg, up)
	if !ok {
		return 0, 0, false
	}
	if d.trunc {
		// The true significand lies strictly inside (man, man+1) × 10^exp10.
		// Directed rounding is monotone, so if both endpoints certify to
		// the same binary64, every value between them rounds there too.
		g, gok := eiselLemireDirected64(d.man+1, d.exp10, d.neg, up)
		if !gok || math.Float64bits(f) != math.Float64bits(g) {
			return 0, 0, false
		}
	}
	return f, d.nd, true
}

// eiselLemireDirected64 rounds nonzero man × 10^exp10 to binary64 in the
// given magnitude direction (up = away from zero), or declines.
func eiselLemireDirected64(man uint64, exp10 int, neg, up bool) (float64, bool) {
	if exp10 < minExp10 || exp10 > maxExp10 {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	nman := man << uint(clz)
	// Same fixed-point exponent estimate as the nearest path; the final
	// msb fold below keeps the two in lockstep.
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// Full 192-bit product nman × (tHi·2⁶⁴ + tLo): unlike the nearest
	// path's lazy second multiply, the directed certificate always wants
	// every known low bit — they are the remainder.
	t := pow10[exp10-minExp10]
	aHi, aLo := bits.Mul64(nman, t[0])
	bHi, bLo := bits.Mul64(nman, t[1])
	p0 := aLo
	p1, carry := bits.Add64(bLo, aHi, 0)
	p2 := bHi + carry

	msb := p2 >> 63
	mant := p2 >> (msb + 10) // the truncated 53-bit significand estimate
	low2 := p2 & (1<<(msb+10) - 1)
	retExp2 -= 1 ^ msb

	var remNonzero bool
	switch {
	case exp10 >= 0 && exp10 <= 55:
		// Exact table entry, exact product: the bits below the cut are
		// the whole remainder.
		remNonzero = low2 != 0 || p1 != 0 || p0 != 0
	case exp10 >= 56:
		// Truncated table: true = product + tail, tail ∈ [0, nman).  The
		// floor is exact unless the tail could carry across the cut.
		if low2 == 1<<(msb+10)-1 && p1 == ^uint64(0) && p0+nman < p0 {
			return 0, false
		}
		// The value's odd part contains 5^exp10 ≥ 5⁵⁶ > 2⁵³: never a
		// binary64, so the remainder is nonzero unconditionally.
		remNonzero = true
	default: // exp10 < 0
		// Rounded-up table: true = product − tail, tail ∈ (0, nman).
		if low2 == 0 && p1 == 0 && p0 < nman {
			// The known low bits are within one multiplicand of zero: the
			// floor may borrow, or the value may be exactly representable.
			// Only dyadic inputs can be exact; settle those with integer
			// arithmetic, decline the rest of this (vanishing) band.
			if k := -exp10; k < len(pow5) && man%pow5[k] == 0 {
				return dyadicDirected64(man/pow5[k], exp10, neg, up)
			}
			return 0, false
		}
		// Low bits ≥ nman > tail: the subtraction never reaches the cut
		// (floor exact) and leaves a nonzero remainder.
		remNonzero = true
	}

	if up && remNonzero {
		mant++
		if mant>>53 != 0 {
			mant >>= 1
			retExp2++
		}
	}
	// Decline Inf/NaN territory and the subnormal range in one unsigned
	// compare, as the nearest path does: the exact reader owns both the
	// saturated values and the ErrRange signalling there.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	// Error identity at the top of the range: a value strictly above
	// MaxFloat64 truncates onto it under the inward direction, but the
	// exact reader still reports ErrRange (IEEE overflow is signalled on
	// the exact value, not the truncated result).  Serving it here would
	// return the right float with the wrong (missing) error — decline.
	if !up && remNonzero && retExp2 == 0x7FE && mant == 1<<53-1 {
		return 0, false
	}
	retBits := mant&(1<<52-1) | retExp2<<52 | signBit(neg)
	return math.Float64frombits(retBits), true
}

// dyadicDirected64 finishes man2 × 2^exp2 for the dyadic q < 0 band
// (man2 = man/5^−q ≥ 1, −27 ≤ exp2 ≤ −1) with exact bit arithmetic.
// The biased exponent lands in [996, 1086] ⊂ [1, 2046] — always a
// normal, never a range condition.
func dyadicDirected64(man2 uint64, exp2 int, neg, up bool) (float64, bool) {
	bitlen := 64 - bits.LeadingZeros64(man2)
	biased := uint64(exp2 + bitlen - 1 + 1023)
	var mant, rem uint64
	if bitlen <= 53 {
		mant = man2 << uint(53-bitlen)
	} else {
		sh := uint(bitlen - 53)
		mant = man2 >> sh
		rem = man2 & (1<<sh - 1)
	}
	if up && rem != 0 {
		mant++
		if mant>>53 != 0 {
			mant >>= 1
			biased++
		}
	}
	retBits := mant&(1<<52-1) | biased<<52 | signBit(neg)
	return math.Float64frombits(retBits), true
}
