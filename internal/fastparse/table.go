package fastparse

import "floatprint/internal/bignat"

// The table covers 10^q for q ∈ [minExp10, maxExp10] — the same span as
// the canonical Eisel–Lemire implementations.  Outside it a decimal
// input is guaranteed to overflow or underflow a binary64 (|exp10| near
// 348 is already past the subnormal floor for any 19-digit significand),
// and the fast path declines to the exact reader anyway.
const (
	minExp10 = -348
	maxExp10 = 347
)

// pow10 holds, for each q, the first 128 bits of the binary expansion of
// 10^q as a fixed-point significand in [2⁶³, 2⁶⁴) × 2⁶⁴: entry [1] is the
// high 64 bits, entry [0] the low 64.  For q ≥ 0 the infinite expansion
// is truncated toward zero; for q < 0 (where 10^q is a non-terminating
// binary fraction) it is rounded *up*, which is what makes the
// Mushtak–Lemire uncertainty test sound: the true product always lies in
// [approx·m − m, approx·m), a half-open interval one multiplicand wide.
//
// It is the product's only table of powers of ten, with three readers:
// this package's read kernel; internal/ryu's print kernels, which
// multiply by an entry where Ryū multiplies by its 125-bit power of
// five, with the shift raised three bits; and internal/extfloat's 64-bit
// powers of ten, each an entry rounded once.
var pow10 [maxExp10 - minExp10 + 1][2]uint64

// Pow10 returns the table entry for 10^q, minExp10 <= q <= maxExp10,
// in place: a pointer, so a kernel reads the two words without copying
// them per call.  The entry is the 128-bit significand, in [2¹²⁷, 2¹²⁸),
// truncated for q ≥ 0 and rounded up for q < 0, so that
// 10^q ≈ entry × 2^(⌊q·log₂10⌋ − 127).
func Pow10(q int) *[2]uint64 {
	return &pow10[q-minExp10]
}

// The table is generated at init from this repository's own big-integer
// arithmetic rather than pasted as a 22 KB literal: the build produces
// exactly the constants the papers tabulate (spot-checked against a
// math/big oracle in the tests), and the generation rule — not 696
// opaque numbers — is what gets reviewed.
func init() {
	// q ≥ 0: 10^q = 5^q · 2^q, and the power of two only shifts the
	// binary point, so the 128-bit significand of 10^q is the top 128
	// bits of 5^q (truncated).
	p := bignat.FromUint64(1)
	for q := 0; q <= maxExp10; q++ {
		pow10[q-minExp10] = top128(p)
		p = bignat.MulWord(p, 5)
	}
	// q < 0: 10^q = 2^-q / 5^-q up to binary-point placement, so the
	// significand is the reciprocal of 5^-q, normalized to 128 bits and
	// rounded up: ceil(2^(127+L) / 5^-q) with L = bitlen(5^-q), which
	// lands in [2¹²⁷, 2¹²⁸) because 2^(L-1) ≤ 5^-q < 2^L.
	p = bignat.FromUint64(5)
	for q := -1; q >= minExp10; q-- {
		l := uint(p.BitLen())
		quo, rem := bignat.DivMod(bignat.Shl(bignat.FromUint64(1), 127+l), p)
		if !rem.IsZero() {
			quo = bignat.AddWord(quo, 1)
		}
		pow10[q-minExp10] = split128(quo)
		p = bignat.MulWord(p, 5)
	}
}

// top128 normalizes p to exactly 128 bits — shifting up when short,
// truncating when long — and splits it into (lo, hi) words.
func top128(p bignat.Nat) [2]uint64 {
	l := p.BitLen()
	if l <= 128 {
		return split128(bignat.Shl(p, uint(128-l)))
	}
	return split128(bignat.Shr(p, uint(l-128)))
}

// split128 splits a value known to fit 128 bits into its two 64-bit
// halves, independent of the platform limb width.
func split128(c bignat.Nat) [2]uint64 {
	hiNat := bignat.Shr(c, 64)
	hi, _ := hiNat.Uint64()
	lo, _ := bignat.Sub(c, bignat.Shl(hiNat, 64)).Uint64()
	return [2]uint64{lo, hi}
}
