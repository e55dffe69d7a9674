// Package fpformat describes floating-point formats and decodes values into
// the (f, e) mantissa/exponent form used throughout Burger & Dybvig's
// algorithm: v = f × b^e with 0 <= f < b^p, where b is the input base and p
// the precision in base-b digits.
//
// The package models IEEE 754 binary interchange formats (binary16/32/64,
// the x87 80-bit extended format, and binary128) as instances of a single
// generic Format descriptor, and also admits arbitrary synthetic formats in
// any base 2..36 so the printing algorithm's base-b generality can be
// exercised and tested.
package fpformat

import (
	"fmt"

	"floatprint/internal/bignat"
)

// Format describes a floating-point format in the paper's terms.
// A finite value of the format is v = f × Base^e where f and e are
// integers, 0 <= f < Base^Precision, and MinExp <= e <= MaxExp.
// Normalized values have f >= Base^(Precision-1); values with
// e == MinExp may be denormalized (f below that bound).
type Format struct {
	// Name identifies the format in diagnostics, e.g. "binary64".
	Name string
	// Base is b, the radix of the mantissa (2 for all IEEE formats).
	Base int
	// Precision is p, the mantissa size in base-b digits (53 for binary64,
	// counting the hidden bit).
	Precision int
	// MinExp and MaxExp bound the exponent e of v = f × b^e.
	// For binary64, e ranges over [-1074, 971].
	MinExp, MaxExp int

	// ExpBits and MantBits give the IEEE interchange encoding widths when
	// the format has one (ExpBits > 0); synthetic formats leave them zero.
	ExpBits, MantBits int
	// HiddenBit reports whether the encoding omits the leading mantissa
	// bit (true for all IEEE interchange formats, false for x87 80-bit).
	HiddenBit bool
}

// Predefined IEEE 754 formats.
var (
	Binary16 = &Format{
		Name: "binary16", Base: 2, Precision: 11,
		MinExp: -24, MaxExp: 5,
		ExpBits: 5, MantBits: 10, HiddenBit: true,
	}
	Binary32 = &Format{
		Name: "binary32", Base: 2, Precision: 24,
		MinExp: -149, MaxExp: 104,
		ExpBits: 8, MantBits: 23, HiddenBit: true,
	}
	Binary64 = &Format{
		Name: "binary64", Base: 2, Precision: 53,
		MinExp: -1074, MaxExp: 971,
		ExpBits: 11, MantBits: 52, HiddenBit: true,
	}
	// X87Extended is the x87 80-bit format with an explicit integer bit.
	X87Extended = &Format{
		Name: "x87ext", Base: 2, Precision: 64,
		MinExp: -16445, MaxExp: 16320,
		ExpBits: 15, MantBits: 64, HiddenBit: false,
	}
	Binary128 = &Format{
		Name: "binary128", Base: 2, Precision: 113,
		MinExp: -16494, MaxExp: 16271,
		ExpBits: 15, MantBits: 112, HiddenBit: true,
	}
	// BFloat16 is the truncated-float32 format used by ML accelerators:
	// float32's exponent range with an 8-bit significand.
	BFloat16 = &Format{
		Name: "bfloat16", Base: 2, Precision: 8,
		MinExp: -133, MaxExp: 120,
		ExpBits: 8, MantBits: 7, HiddenBit: true,
	}
)

// New returns a synthetic format with the given base, precision, and
// exponent range.  It has no IEEE bit-level encoding (Encode/DecodeBits do
// not apply) but fully supports decoding from parts, neighbor computation,
// and printing.
func New(name string, base, precision, minExp, maxExp int) (*Format, error) {
	switch {
	case base < 2 || base > 36:
		return nil, fmt.Errorf("fpformat: base %d out of range [2,36]", base)
	case precision < 1:
		return nil, fmt.Errorf("fpformat: precision %d < 1", precision)
	case minExp > maxExp:
		return nil, fmt.Errorf("fpformat: MinExp %d > MaxExp %d", minExp, maxExp)
	}
	return &Format{Name: name, Base: base, Precision: precision, MinExp: minExp, MaxExp: maxExp}, nil
}

// Class labels the kind of a decoded value.
type Class int

const (
	// Zero is ±0.
	Zero Class = iota
	// Denormal is a finite value with e == MinExp and f < b^(p-1).
	Denormal
	// Normal is any other finite nonzero value.
	Normal
	// Inf is ±infinity.
	Inf
	// NaN is not-a-number.
	NaN
)

func (c Class) String() string {
	switch c {
	case Zero:
		return "zero"
	case Denormal:
		return "denormal"
	case Normal:
		return "normal"
	case Inf:
		return "inf"
	case NaN:
		return "nan"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Value is a decoded floating-point datum: v = ±F × Base^E when finite.
type Value struct {
	Fmt   *Format
	Class Class
	Neg   bool
	// F is the integer mantissa, 0 <= F < Base^Precision.
	// It is nil (zero) for Zero, Inf, and NaN.
	F bignat.Nat
	// E is the exponent of v = F × Base^E.  Zero for non-finite classes.
	E int
}

// IsFinite reports whether v is a finite number (including zero).
func (v Value) IsFinite() bool { return v.Class == Zero || v.Class == Denormal || v.Class == Normal }

// MantissaEven reports whether the integer mantissa F is even, which
// determines boundary ownership under the reader's round-to-even rule.
func (v Value) MantissaEven() bool {
	if v.Fmt.Base%2 == 0 {
		return len(v.F) == 0 || v.F[0]&1 == 0
	}
	// For odd bases, evenness of f must be computed mod 2 explicitly.
	_, r := bignat.DivModWord(v.F, 2)
	return r == 0
}

// IsBoundary reports whether v sits just above a binade boundary
// (f == b^(p-1)), where the gap to the predecessor is narrower than the gap
// to the successor — the special case in the paper's v⁻ computation and in
// rows 2 and 4 of Table 1.
func (v Value) IsBoundary() bool {
	if v.Class != Normal {
		return false
	}
	return bignat.Cmp(v.F, v.Fmt.minNormalMantissa()) == 0
}

// minNormalMantissa returns b^(p-1), the smallest normalized mantissa.
// It comes from the shared power table: read it, never modify it, and
// clone it before it goes into a Value.
func (f *Format) minNormalMantissa() bignat.Nat {
	return bignat.Powers(f.Base).Pow(uint(f.Precision - 1))
}

// mantissaLimit returns b^p, one above the largest mantissa, from the
// shared power table (read-only, as for minNormalMantissa).
func (f *Format) mantissaLimit() bignat.Nat {
	return bignat.Powers(f.Base).Pow(uint(f.Precision))
}

// maxMantissa returns b^p - 1, the largest mantissa, freshly allocated.
func (f *Format) maxMantissa() bignat.Nat {
	return bignat.SubWord(f.mantissaLimit(), 1)
}

// FromParts builds a finite Value from a sign, mantissa, and exponent,
// classifying it and validating the ranges.  The mantissa is normalized
// upward when possible (shifted so that f >= b^(p-1)) to produce the
// canonical representation; f == 0 yields Zero regardless of e.
func (f *Format) FromParts(neg bool, mant bignat.Nat, e int) (Value, error) {
	if mant.IsZero() {
		return Value{Fmt: f, Class: Zero, Neg: neg}, nil
	}
	if bignat.Cmp(mant, f.mantissaLimit()) >= 0 {
		return Value{}, fmt.Errorf("fpformat: mantissa exceeds %d base-%d digits", f.Precision, f.Base)
	}
	// Normalize: multiply mantissa by base while it stays below b^p and the
	// exponent stays above MinExp.
	minNorm := f.minNormalMantissa()
	for bignat.Cmp(mant, minNorm) < 0 && e > f.MinExp {
		mant = bignat.MulWord(mant, bignat.Word(f.Base))
		e--
	}
	if e < f.MinExp || e > f.MaxExp {
		return Value{}, fmt.Errorf("fpformat: exponent %d out of range [%d,%d]", e, f.MinExp, f.MaxExp)
	}
	class := Normal
	if bignat.Cmp(mant, minNorm) < 0 {
		class = Denormal
	}
	return Value{Fmt: f, Class: class, Neg: neg, F: mant, E: e}, nil
}
