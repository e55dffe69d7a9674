// Package extfloat implements a software model of x87 80-bit extended
// floating point: a 64-bit mantissa with an unconstrained exponent and
// round-to-nearest-even multiplication.
//
// It backs Gay's fixed-digit fast path (internal/fastpath), which the
// product tries first for base-10 fixed-digit output, and Grisu3
// (internal/grisu): both scale by its correctly rounded powers of ten
// and certify the result.  And it backs the NaivePrintf baseline: the
// 1990s C libraries whose printf the paper benchmarks in Table 3
// performed binary-to-decimal scaling in hardware long double (or plain
// double).  With 64 mantissa bits, scaling by a correctly rounded power
// of ten and peeling 17 digits leaves a relative error of a few units in
// 2⁻⁶⁴, which flips the 17th digit on a small fraction of inputs — the
// "Incorrect" column of Table 3.  Reproducing that failure mode requires
// exactly this arithmetic, since modern libraries (and Go's strconv)
// round correctly.
package extfloat

import (
	"math"
	"math/bits"

	"floatprint/internal/fastparse"
)

// Ext is a non-negative extended float: value = M × 2ᴱ with the mantissa
// normalized (top bit set) unless the value is zero (M == 0).
type Ext struct {
	M uint64
	E int
}

// Zero is the zero value.
var Zero = Ext{}

// FromFloat64 converts a non-negative finite float64 exactly.
func FromFloat64(v float64) Ext {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		panic("extfloat: FromFloat64 requires a non-negative finite value")
	}
	if v == 0 {
		return Zero
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	m := uint64(frac * (1 << 53))
	return normalize(m, exp-53)
}

// FromUint64 converts an integer exactly if it fits 64 mantissa bits
// (all uint64 values do).
func FromUint64(u uint64) Ext {
	if u == 0 {
		return Zero
	}
	return normalize(u, 0)
}

// normalize shifts m up until its top bit is set, adjusting e.
func normalize(m uint64, e int) Ext {
	s := bits.LeadingZeros64(m)
	return Ext{M: m << s, E: e - s}
}

// Float64 rounds to the nearest float64 (ties to even).  Exponent overflow
// and subnormal rounding are not handled — callers stay in range.
func (x Ext) Float64() float64 {
	if x.M == 0 {
		return 0
	}
	// Keep 53 bits, round on the lower 11.
	keep := x.M >> 11
	rem := x.M & (1<<11 - 1)
	half := uint64(1) << 10
	if rem > half || (rem == half && keep&1 == 1) {
		keep++
	}
	return math.Ldexp(float64(keep), x.E+11)
}

// Mul returns x*y rounded to nearest even.
func Mul(x, y Ext) Ext {
	if x.M == 0 || y.M == 0 {
		return Zero
	}
	hi, lo := bits.Mul64(x.M, y.M)
	e := x.E + y.E + 64
	// Product of two normalized mantissas is in [2^126, 2^128): at most
	// one left shift renormalizes.
	if hi&(1<<63) == 0 {
		hi = hi<<1 | lo>>63
		lo <<= 1
		e--
	}
	// Round hi by the discarded low word.
	if lo > 1<<63 || (lo == 1<<63 && hi&1 == 1) {
		hi++
		if hi == 0 { // mantissa overflowed to 2^64
			hi = 1 << 63
			e++
		}
	}
	return Ext{M: hi, E: e}
}

// Cmp compares x with the small non-negative integer n.
func (x Ext) Cmp(n uint64) int {
	y := FromUint64(n)
	switch {
	case x.M == 0 && y.M == 0:
		return 0
	case x.M == 0:
		return -1
	case y.M == 0:
		return 1
	case x.E != y.E:
		if x.E < y.E {
			return -1
		}
		return 1
	case x.M < y.M:
		return -1
	case x.M > y.M:
		return 1
	}
	return 0
}

// DigitBelow returns the integer part d of x (which must be < 2⁶³ in
// magnitude and is below the base for digit peeling) and the exact
// fractional remainder.
func (x Ext) DigitBelow() (d uint64, rest Ext) {
	if x.M == 0 || x.E <= -64 {
		return 0, x
	}
	if x.E >= 0 {
		panic("extfloat: DigitBelow integer part out of range")
	}
	shift := uint(-x.E)
	d = x.M >> shift
	frac := x.M & (1<<shift - 1)
	if frac == 0 {
		return d, Zero
	}
	return d, normalize(frac, x.E)
}

// MulPow10 returns x·10ᵏ using one multiplication by a correctly rounded
// extended-precision power of ten, as an x87-era printf's long-double
// power table would.
func (x Ext) MulPow10(k int) Ext {
	if k == 0 || x.M == 0 {
		return x
	}
	return Mul(x, Pow10(k))
}

// pow10Range is the span of the shared 128-bit table (fastparse.Pow10)
// Pow10 rounds, which covers the double range with margin.
const pow10Range = 347

// Pow10 returns the correctly rounded extended-precision value of 10ᵏ for
// |k| <= 347 (a long-double constant, half an ulp at most from 10ᵏ): the
// shared 128-bit entry for 10ᵏ, rounded to its top 64 bits.
func Pow10(k int) Ext {
	if k < -pow10Range || k > pow10Range {
		panic("extfloat: Pow10 exponent out of range")
	}
	// The entry is 10ᵏ's significand exact or within one unit of its low
	// word: truncated for k >= 0, rounded up for k < 0.  So rounding it
	// half up on that word's top bit rounds 10ᵏ to nearest, unless the
	// low word is exactly half (the true value could lie on either side)
	// or the high word is all ones (the carry would wrap).  No entry has
	// either; TestPow10CorrectlyRounded checks every k against math/big.
	p := fastparse.Pow10(k)
	return Ext{M: p[1] + p[0]>>63, E: 217706*k>>16 - 63} // E = ⌊k·log₂10⌋ − 63
}
