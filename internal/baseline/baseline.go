// Package baseline implements the comparison systems of the paper's
// evaluation (Tables 2 and 3):
//
//   - SteeleWhite: free-format conversion with Steele & White's iterative
//     scaling (reference [5]), the slow baseline of Table 2.
//   - FixedDigits: the "straightforward fixed-format algorithm" of Table 3,
//     which prints a requested number of significant digits correctly
//     rounded using exact integer arithmetic, with none of the shortest-
//     output machinery.
//   - NaivePrintf: a simulation of a 1996-era C library printf that
//     extracts digits with ordinary floating-point arithmetic.  Modern
//     libraries round correctly, so the paper's "incorrectly rounded
//     printf output" counts cannot be reproduced against a real libc; this
//     routine exhibits exactly the failure mode those printfs had (error
//     accumulation in repeated multiply-by-ten), letting the Table 3
//     "Incorrect" column be regenerated.  See DESIGN.md.
package baseline

import (
	"fmt"
	"math"

	"floatprint/internal/bignat"
	"floatprint/internal/core"
	"floatprint/internal/extfloat"
	"floatprint/internal/fpformat"
)

// SteeleWhite converts v to shortest-form digits using the iterative
// scaling search of Steele & White's Dragon algorithm.  Their algorithm
// does not account for the reader's rounding mode, which corresponds to
// the conservative ReaderUnknown setting.
func SteeleWhite(v fpformat.Value, base int) (core.Result, error) {
	return core.FreeFormat(v, base, core.ScalingIterative, core.ReaderUnknown)
}

// FixedDigits prints exactly n significant base-B digits of the positive
// finite value v, correctly rounded (ties to even, as modern C libraries
// round), returning digit values and K with V = 0.d₁…dₙ × Bᴷ.  It performs
// the conversion with exact integer arithmetic but no rounding-range
// logic, so its digits may include "garbage" beyond the value's precision
// — which is the point of the baseline.
func FixedDigits(v fpformat.Value, base, n int) (core.Result, error) {
	if err := checkValue(v, base); err != nil {
		return core.Result{}, err
	}
	if n <= 0 {
		return core.Result{}, fmt.Errorf("baseline: digit count %d must be positive", n)
	}
	r, s := valueRatio(v) // v = r/s exactly

	// Find k, the smallest integer with v < B^k, starting from a bit-length
	// estimate and correcting exactly.  Maintain v/Bᵏ as num/den so
	// negative k needs no inexact division.
	k := int(math.Ceil(logB(v, base) + 1e-10))
	bw := bignat.Word(base)
	num, den := r, s
	if k >= 0 {
		den = bignat.Mul(den, bignat.Powers(base).Pow(uint(k)))
	} else {
		num = bignat.Mul(num, bignat.Powers(base).Pow(uint(-k)))
	}
	for bignat.Cmp(num, den) >= 0 { // v >= B^k: k too low
		den = bignat.MulWord(den, bw)
		k++
	}
	for {
		nb := bignat.MulWord(num, bw)
		if bignat.Cmp(nb, den) >= 0 {
			break
		}
		num = nb // v < B^(k-1): k too high
		k--
	}

	// Generate n digits of num/den ∈ [1/B, 1).  The working numerator is
	// cloned once (num may share storage with the caller's mantissa) and
	// then mutated in place, matching the allocation discipline of the
	// free-format loop so the Table 3 time ratio compares algorithms, not
	// memory-management styles.
	digits := make([]byte, 0, n)
	cur := make(bignat.Nat, len(num), len(num)+2)
	copy(cur, num)
	for i := 0; i < n; i++ {
		cur = bignat.MulWordInPlace(cur, bw)
		var d bignat.Word
		d, cur = bignat.DivModSmallQuotientInPlace(cur, den)
		digits = append(digits, byte(d))
	}
	// Round at the last digit on the exact remainder.
	switch bignat.Cmp(bignat.Shl(cur, 1), den) {
	case 1:
		digits, k = roundUpDigits(digits, base, k, n)
	case 0:
		if digits[n-1]%2 == 1 { // ties to even
			digits, k = roundUpDigits(digits, base, k, n)
		}
	}
	return core.Result{Digits: digits, K: k, NSig: n}, nil
}

// roundUpDigits increments the last digit with carry; on ripple past the
// first digit the string becomes 1 followed by zeros and K rises, keeping
// exactly n digits.
func roundUpDigits(digits []byte, base, k, n int) ([]byte, int) {
	for i := n - 1; i >= 0; i-- {
		if digits[i] != byte(base-1) {
			digits[i]++
			return digits, k
		}
		digits[i] = 0
	}
	digits[0] = 1
	return digits, k + 1
}

// NaivePrintf extracts n significant decimal digits of v > 0 the way an
// x87-era C library printf did: scale into [1, 10) with one multiplication
// by a long-double power of ten from a correctly rounded constant table,
// then peel digits with truncate-and-scale in 64-bit-mantissa extended
// arithmetic (see internal/extfloat).  The accumulated error of a few
// units in 2⁻⁶⁴ flips the final digit on a small fraction of inputs, so
// the result is usually — but not always — correctly rounded, reproducing
// the defect counted in Table 3's "Incorrect" column.
func NaivePrintf(v float64, n int) (digits []byte, k int) {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) || n <= 0 {
		return nil, 0
	}
	// Estimate floor(log10 v) from the binary exponent (Frexp is exact
	// even on subnormals, unlike math.Log10 on some platforms).
	frac, e2 := math.Frexp(v)
	k = int(math.Floor(float64(e2)*0.30102999566398120 + math.Log10(frac)))
	x := extfloat.FromFloat64(v).MulPow10(-k)
	for x.Cmp(10) >= 0 {
		x = x.MulPow10(-1)
		k++
	}
	for x.Cmp(1) < 0 {
		x = x.MulPow10(1)
		k--
	}
	k++ // convert floor(log10 v) to the 0.d₁…dₙ × 10ᵏ convention

	ten := extfloat.FromUint64(10)
	digits = make([]byte, n)
	for i := 0; i < n; i++ {
		d, rest := x.DigitBelow()
		if d > 9 {
			d = 9 // clamp accumulated error at the top of the range
		}
		digits[i] = byte(d)
		x = extfloat.Mul(rest, ten)
	}
	// Round on the next digit's worth of remainder.
	if x.Cmp(5) >= 0 {
		digits, k = roundUpDigits(digits, 10, k, n)
	}
	return digits, k
}

func valueRatio(v fpformat.Value) (r, s bignat.Nat) {
	pows := bignat.Powers(v.Fmt.Base)
	if v.E >= 0 {
		return bignat.Mul(v.F, pows.Pow(uint(v.E))), bignat.Nat{1}
	}
	// The denominator is mutated by neither side: sharing the cached power
	// is safe (bignat operands are read-only).
	return v.F, pows.Pow(uint(-v.E))
}

// logB approximates log_base(v) from the mantissa's bit length, accurate
// enough (within one) for the exact correction loops above.
func logB(v fpformat.Value, base int) float64 {
	lnB := math.Log(float64(base))
	lnb := math.Log(float64(v.Fmt.Base))
	return (float64(v.F.BitLen())*math.Ln2 + float64(v.E)*lnb) / lnB
}

func checkValue(v fpformat.Value, base int) error {
	if base < 2 || base > 36 {
		return fmt.Errorf("baseline: output base %d out of range [2,36]", base)
	}
	if v.Neg || (v.Class != fpformat.Normal && v.Class != fpformat.Denormal) {
		return fmt.Errorf("baseline: value must be positive and finite")
	}
	return nil
}
