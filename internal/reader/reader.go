// Package reader implements correctly rounded floating-point *input*: the
// inverse of the printing algorithm, in the spirit of Clinger's "How to
// Read Floating-Point Numbers Accurately" (reference [1] of Burger &
// Dybvig).  Given a digit string in any base 2..36 it produces the
// floating-point value of a target format nearest the exact rational value
// of the string, under a selectable tie-breaking rule.
//
// The printing paper leans on the existence of such a reader twice: the
// free-format output is defined by what an accurate reader recovers, and
// the reader's rounding mode determines whether the rounding-range
// endpoints are admissible outputs.  This package lets the tests close
// that loop for every mode without relying on strconv (which only reads
// base 10 with ties-to-even).
//
// The implementation uses exact big-integer arithmetic throughout — the
// scaled comparison approach of Clinger's AlgorithmM — so results are
// correctly rounded for all inputs, at the cost of speed on huge
// exponents.  The digits are folded into one integer in place, a
// word-sized chunk at a time, and every power it needs (Bᵉˣᵖ, bᵉ,
// b^(p−1), bᵖ) is read from bignat's shared per-base tables, the same
// ones the printing core uses.  Those entries are shared and immutable:
// the reader never modifies one and copies any that becomes a result's
// mantissa.  Exponents so large the value provably overflows (or so
// small it provably rounds to zero) are decided by an O(1) magnitude
// bound instead, so no input costs big-integer work beyond its own
// digit count.
package reader

import (
	"errors"
	"fmt"
	"math"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// RoundMode selects how an inexact value — one that falls between two
// representable numbers — is rounded.  The three nearest modes differ only
// on exact halfway ties; the two directed modes move every inexact value
// toward the named infinity (IEEE 754 roundTowardNegative and
// roundTowardPositive), which is what interval endpoints need: a lower
// bound read under TowardNegInf can only move down, an upper bound read
// under TowardPosInf can only move up, so the machine interval always
// encloses the written one.  The nearest names correspond to the printer's
// ReaderMode values: a printer told the reader uses mode M is only honest
// if the reader really does.
type RoundMode int

const (
	// NearestEven rounds ties to the candidate with an even mantissa
	// (IEEE 754 round-to-nearest default).
	NearestEven RoundMode = iota
	// NearestAway rounds ties away from zero.
	NearestAway
	// NearestTowardZero rounds ties toward zero.
	NearestTowardZero
	// TowardNegInf rounds every inexact value toward −∞ (IEEE 754
	// roundTowardNegative): positive magnitudes truncate, negative ones
	// grow.  Positive overflow saturates at the largest finite value,
	// negative overflow goes to −Inf.
	TowardNegInf
	// TowardPosInf rounds every inexact value toward +∞ (IEEE 754
	// roundTowardPositive), the mirror image of TowardNegInf.
	TowardPosInf
)

func (m RoundMode) String() string {
	switch m {
	case NearestEven:
		return "nearest-even"
	case NearestAway:
		return "nearest-away"
	case NearestTowardZero:
		return "nearest-toward-zero"
	case TowardNegInf:
		return "toward-neg-inf"
	case TowardPosInf:
		return "toward-pos-inf"
	}
	return fmt.Sprintf("RoundMode(%d)", int(m))
}

// directed reports whether m is one of the two directed modes.
func directed(m RoundMode) bool { return m == TowardNegInf || m == TowardPosInf }

// magnitudeUp reports whether mode rounds an inexact value of the given
// sign away from zero in magnitude: TowardPosInf pushes positive values up
// and TowardNegInf pushes negative values down, both of which grow |v|.
// The nearest modes answer false; their ties are resolved in roundQuotient.
func magnitudeUp(mode RoundMode, neg bool) bool {
	return (mode == TowardPosInf && !neg) || (mode == TowardNegInf && neg)
}

// ErrRange reports that a parsed value overflows the target format.  Under
// the nearest modes (and the directed mode pointing past the overflow) the
// returned value is ±Inf as IEEE prescribes; under the directed mode
// pointing back toward zero it is the largest finite value of the format
// (IEEE 754 §4.3.2: roundTowardNegative carries positive overflow to the
// most positive finite number, not to +Inf), still with ErrRange so
// callers can observe the saturation.
var ErrRange = errors.New("reader: value out of range")

// maxFinite is the largest finite value of f: (b^p − 1) × b^MaxExp, where
// the truncating directed modes saturate on overflow.
func maxFinite(f *fpformat.Format, neg bool) fpformat.Value {
	m := bignat.SubWord(bignat.Powers(f.Base).Pow(uint(f.Precision)), 1)
	return fpformat.Value{Fmt: f, Class: fpformat.Normal, Neg: neg, F: m, E: f.MaxExp}
}

// minDenormal is the smallest positive value of f, 1 × b^MinExp.  The
// magnitude-growing directed modes land here instead of underflowing to
// zero: a nonzero value must never round below its own magnitude when the
// mode pushes outward, or interval enclosure would break at the origin.
func minDenormal(f *fpformat.Format, neg bool) fpformat.Value {
	return fpformat.Value{Fmt: f, Class: fpformat.Denormal, Neg: neg, F: bignat.Nat{1}, E: f.MinExp}
}

// overflow resolves a magnitude above the finite range of f: ±Inf for the
// nearest modes and the outward-pointing directed mode, the largest finite
// value for the truncating one.  Either way the result is out of range.
func overflow(f *fpformat.Format, neg bool, mode RoundMode) (fpformat.Value, error) {
	if directed(mode) && !magnitudeUp(mode, neg) {
		return maxFinite(f, neg), ErrRange
	}
	return fpformat.Value{Fmt: f, Class: fpformat.Inf, Neg: neg}, ErrRange
}

// Number is an unrounded textual number: ±0.d₁…dₙ × Bᴷ, mirroring the
// printer's Result so printed output can be fed straight back in.
type Number struct {
	Neg    bool
	Digits []byte // digit values 0..Base-1
	Base   int
	K      int
}

// Convert rounds the exact rational value of n to the value of format f
// prescribed by the rounding mode: the nearest representable value under
// the three nearest modes, the nearest value in the rounding direction
// under the two directed modes.  Overflow returns ErrRange alongside ±Inf
// or, for the directed mode truncating that sign, the largest finite
// value; underflow rounds through the denormal range to ±0, except that a
// directed mode pushing a nonzero magnitude outward stops at the smallest
// denormal rather than crossing zero.
func Convert(n Number, f *fpformat.Format, mode RoundMode) (fpformat.Value, error) {
	if n.Base < 2 || n.Base > 36 {
		return fpformat.Value{}, fmt.Errorf("reader: base %d out of range [2,36]", n.Base)
	}
	for _, dig := range n.Digits {
		if int(dig) >= n.Base {
			return fpformat.Value{}, fmt.Errorf("reader: digit %d out of range for base %d", dig, n.Base)
		}
	}
	// Fold the digits into one integer D, in place, so the value is
	// D × Base^(K−len).
	d := bignat.FromDigits(n.Digits, n.Base)
	if d.IsZero() {
		return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: n.Neg}, nil
	}
	exp := n.K - len(n.Digits)

	// Magnitude pre-check: the value is d × Base^exp, and d.BitLen()
	// pins log2(d) within one bit, so log2(value) is known to ±1 here
	// in O(1).  Astronomical exponents must be decided now — without
	// this, a stray "1e20000000" spends minutes raising the base to a
	// multi-megabit power on its way to the same ±Inf or ±0, a denial
	// of service every caller (and the batch parse engine especially)
	// would inherit.  The 16-bit margin keeps any case a float bound
	// cannot decide on the exact path; such borderline exponents are
	// small, so the exact path stays cheap for them.
	log2In := math.Log2(float64(n.Base))
	log2Out := math.Log2(float64(f.Base))
	log2Lo := float64(d.BitLen()-1) + float64(exp)*log2In // <= log2(value)
	log2Hi := float64(d.BitLen()) + float64(exp)*log2In   // >= log2(value)
	if log2Lo > float64(f.MaxExp+f.Precision)*log2Out+16 {
		return overflow(f, n.Neg, mode)
	}
	if log2Hi < float64(f.MinExp)*log2Out-16 {
		// Below half the smallest denormal by a wide margin: every
		// nearest mode takes it to zero, as roundRational would.  An
		// outward-pointing directed mode instead lands on the smallest
		// denormal, exactly as the exact path does for any nonzero
		// magnitude that floors to zero.
		if magnitudeUp(mode, n.Neg) {
			return minDenormal(f, n.Neg), nil
		}
		return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: n.Neg}, nil
	}

	// Exact rational x = num/den.  The power comes from the shared table
	// and is only read.
	num, den := d, one
	if exp >= 0 {
		num = bignat.Mul(num, bignat.Powers(n.Base).Pow(uint(exp)))
	} else {
		den = bignat.Powers(n.Base).Pow(uint(-exp))
	}
	return roundRational(num, den, n.Neg, f, mode)
}

// one is the denominator of an integer-valued x (shared, read-only).
var one = bignat.Nat{1}

// roundRational returns the value of format f that num/den (> 0) rounds
// to under mode; neg carries the sign, which the directed modes need to
// orient their magnitude rounding.  It only reads num and den.
func roundRational(num, den bignat.Nat, neg bool, f *fpformat.Format, mode RoundMode) (fpformat.Value, error) {
	// Estimate e with floor(log_b(x)) − (p−1) from the bit lengths, then
	// correct by iteration; the estimate is within a couple of units.
	logBx := float64(num.BitLen()-den.BitLen()) * math.Ln2 / math.Log(float64(f.Base))
	e := int(math.Floor(logBx)) - (f.Precision - 1)
	if e < f.MinExp {
		e = f.MinExp
	}

	// lo = b^(p−1), hi = b^p and every bᵉ are shared table entries: none
	// may be modified or returned in a Value without a copy.
	pows := bignat.Powers(f.Base)
	lo := pows.Pow(uint(f.Precision - 1))
	hi := pows.Pow(uint(f.Precision))
	var scaled bignat.Nat // num·b⁻ᵉ or den·bᵉ, its buffer reused across passes
	for {
		// q = floor(x / bᵉ), computed exactly.  The binade — and therefore
		// the rounding grain — is chosen from the floor, NOT the rounded
		// value: a number just below b^(p−1)·bᵉ lives in the finer-grained
		// binade below even if rounding would carry it up.
		sNum, sDen := num, den
		if e > 0 {
			scaled = bignat.MulInto(scaled, den, pows.Pow(uint(e)))
			sDen = scaled
		} else if e < 0 {
			scaled = bignat.MulInto(scaled, num, pows.Pow(uint(-e)))
			sNum = scaled
		}
		q, rem := bignat.DivMod(sNum, sDen)
		if bignat.Cmp(q, hi) >= 0 {
			// Floor at or above b^p: grain too fine, raise e.
			e++
			if e > f.MaxExp {
				return overflow(f, neg, mode)
			}
			continue
		}
		if bignat.Cmp(q, lo) < 0 && e > f.MinExp {
			// Floor below b^(p−1): the value belongs to a finer binade.
			e--
			continue
		}

		inexact := !rem.IsZero()
		m := roundQuotient(q, rem, sDen, mode, neg)
		if bignat.Cmp(m, hi) >= 0 {
			// Rounding carried into the next binade: the value is exactly
			// bᵖ·bᵉ = b^(p−1)·b^(e+1).  The table's b^(p−1) is copied,
			// never handed out.
			m = lo.Clone()
			e++
		}
		if m.IsZero() {
			// Underflow to zero (only possible at e == MinExp, and never
			// under an outward-pointing directed mode, whose roundQuotient
			// lifts any nonzero remainder to at least 1).
			return fpformat.Value{Fmt: f, Class: fpformat.Zero, Neg: neg}, nil
		}
		if e > f.MaxExp {
			return overflow(f, neg, mode)
		}
		if e == f.MaxExp && inexact && directed(mode) && !magnitudeUp(mode, neg) &&
			bignat.Cmp(bignat.AddWord(m, 1), hi) == 0 {
			// IEEE signals overflow from the unbounded-exponent result: a
			// value strictly above the largest finite number truncates onto
			// it under an inward directed mode, but still overflows.
			return overflow(f, neg, mode)
		}
		class := fpformat.Normal
		if bignat.Cmp(m, lo) < 0 {
			class = fpformat.Denormal
		}
		return fpformat.Value{Fmt: f, Class: class, Neg: neg, F: m, E: e}, nil
	}
}

// roundQuotient rounds q + rem/den to an integer under mode; neg is the
// sign of the value, which orients the directed modes.  q and rem must be
// the caller's own (as DivMod returns them): both are consumed, the
// result reusing q's storage.
func roundQuotient(q, rem, den bignat.Nat, mode RoundMode, neg bool) bignat.Nat {
	if rem.IsZero() {
		return q
	}
	if directed(mode) {
		// Directed rounding has no ties: any nonzero remainder moves away
		// from zero when the mode points outward for this sign, and
		// truncates otherwise.
		if magnitudeUp(mode, neg) {
			return bignat.AddWordInPlace(q, 1)
		}
		return q
	}
	switch bignat.Cmp(bignat.MulWordInPlace(rem, 2), den) {
	case -1:
		return q
	case 1:
		return bignat.AddWordInPlace(q, 1)
	}
	// Exact tie.
	switch mode {
	case NearestAway:
		return bignat.AddWordInPlace(q, 1)
	case NearestTowardZero:
		return q
	default: // NearestEven
		if q.Bit(0) == 0 {
			return q
		}
		return bignat.AddWordInPlace(q, 1)
	}
}
