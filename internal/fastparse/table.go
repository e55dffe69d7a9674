package fastparse

import "math/bits"

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

// The table is generated at init rather than pasted as a 22 KB
// literal, with 64-bit word arithmetic on one fixed array: the build
// produces exactly the constants the papers tabulate (checked entry by
// entry against a math/big oracle in the tests), and the generation
// rule — not 696 opaque numbers — is what gets reviewed.  The init
// allocates nothing.
func init() {
	// p holds a number of up to 960 bits, least significant word
	// first: 5^347 has 806 bits, and 2^959 is 960.
	var p [15]uint64

	// q ≥ 0: 10^q = 5^q · 2^q, and the power of two only shifts the
	// binary point, so the 128-bit significand of 10^q is the top 128
	// bits of 5^q (truncated).
	p[0] = 1
	for q := 0; q <= maxExp10; q++ {
		pow10[q-minExp10] = top128(&p)
		mulWord(&p, 5)
	}

	// q < 0: 10^q = 2^-q / 5^-q up to binary-point placement, so the
	// significand is the reciprocal of 5^k, k = -q, normalized to 128
	// bits and rounded up: ⌈2^(127+L) / 5^k⌉ with L = bitlen(5^k),
	// which lands in [2¹²⁷, 2¹²⁸) because 2^(L-1) < 5^k < 2^L.  Dividing
	// a running ⌊2^959 / 5^(k-1)⌋ by 5 gives ⌊2^959 / 5^k⌋ (nested floors
	// compose), a number of 960-L bits whose top 128 are therefore
	// ⌊2^(127+L) / 5^k⌋; 5^k divides no power of two, so adding one
	// rounds up.
	p = [15]uint64{14: 1 << 63}
	for q := -1; q >= minExp10; q-- {
		divWord(&p, 5)
		e := top128(&p)
		var c uint64
		e[0], c = bits.Add64(e[0], 1, 0)
		e[1] += c
		pow10[q-minExp10] = e
	}
}

// mulWord sets p to p·m; the product must fit.
func mulWord(p *[15]uint64, m uint64) {
	var carry uint64
	for i := range p {
		hi, lo := bits.Mul64(p[i], m)
		var c uint64
		p[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
}

// divWord sets p to ⌊p/d⌋.
func divWord(p *[15]uint64, d uint64) {
	var rem uint64
	for i := len(p) - 1; i >= 0; i-- {
		p[i], rem = bits.Div64(rem, p[i], d)
	}
}

// top128 returns the top 128 bits of p, nonzero — shifted up when p is
// shorter, truncated when longer — as (lo, hi) words.
func top128(p *[15]uint64) [2]uint64 {
	i := len(p) - 1
	for p[i] == 0 {
		i--
	}
	var mid, low uint64
	if i >= 1 {
		mid = p[i-1]
	}
	if i >= 2 {
		low = p[i-2]
	}
	s := uint(bits.LeadingZeros64(p[i]))
	return [2]uint64{mid<<s | low>>(64-s), p[i]<<s | mid>>(64-s)}
}
