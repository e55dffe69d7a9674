// Package core implements the floating-point printing algorithms of
// Burger & Dybvig, "Printing Floating-Point Numbers Quickly and
// Accurately" (PLDI 1996).
//
// The package provides:
//
//   - FreeFormat: the paper's free-format algorithm (Section 3), which
//     emits the shortest, correctly rounded digit string that reads back to
//     the original value under the reader's rounding mode.
//   - FixedFormat / FixedFormatRelative: the fixed-format algorithm
//     (Section 4), correctly rounded to an absolute digit position or a
//     digit count, with '#' marks for insignificant trailing digits.
//   - BasicFreeFormat: the Section 2 reference algorithm in exact rational
//     arithmetic, used as a test oracle for the optimized implementation.
//   - Three scaling strategies (Section 3.2): the Steele & White iterative
//     search, a floating-point-logarithm estimate with adjustment, and the
//     paper's two-flop estimator with a penalty-free fixup.
//
// All digit strings are produced as raw digit values (0..B-1) plus a scale
// factor K, representing V = 0.d₁d₂…dₙ × Bᴷ exactly as in the paper;
// rendering to text is left to callers.
package core

import (
	"fmt"

	"floatprint/internal/fpformat"
)

// ReaderMode describes the rounding behavior of the floating-point *input*
// routine that will eventually read the printed digits back in.  It decides
// whether the exact endpoints of the rounding range (the midpoints between
// v and its neighbors) themselves round to v, which in turn lets the
// printer stop one digit earlier in boundary cases (Section 3: "If the
// input routine's rounding algorithm is known, V may be allowed to equal
// low or high or both").
type ReaderMode int

const (
	// ReaderUnknown makes no assumption about the reader: neither endpoint
	// may be produced.  This is the conservative default of Section 2.
	ReaderUnknown ReaderMode = iota
	// ReaderNearestEven assumes IEEE unbiased rounding (round half to
	// even): both endpoints round to v exactly when v's mantissa is even.
	ReaderNearestEven
	// ReaderNearestAway assumes the reader rounds ties away from zero:
	// for positive v the low endpoint rounds up to v, the high endpoint
	// rounds up past v.
	ReaderNearestAway
	// ReaderNearestTowardZero assumes the reader rounds ties toward zero:
	// for positive v the high endpoint rounds down to v, the low endpoint
	// rounds down past v.
	ReaderNearestTowardZero
)

func (m ReaderMode) String() string {
	switch m {
	case ReaderUnknown:
		return "unknown"
	case ReaderNearestEven:
		return "nearest-even"
	case ReaderNearestAway:
		return "nearest-away"
	case ReaderNearestTowardZero:
		return "nearest-toward-zero"
	}
	return fmt.Sprintf("ReaderMode(%d)", int(m))
}

// BoundaryOK returns the low-ok?/high-ok? flags of the paper's Figure 1
// for a positive value under reader mode m: whether the low and high
// endpoints of its rounding range read back as the value itself.  even
// is the parity of the value's integer mantissa (fpformat's
// Value.MantissaEven), the only property of the value the mapping
// depends on.  The exact core and the Ryū kernels both take their
// acceptance flags from here.
func (m ReaderMode) BoundaryOK(even bool) (lowOK, highOK bool) {
	switch m {
	case ReaderNearestEven:
		return even, even
	case ReaderNearestAway:
		return true, false
	case ReaderNearestTowardZero:
		return false, true
	default:
		return false, false
	}
}

// Scaling selects the strategy used to find the scale factor k
// (Section 3.2 and Table 2 of the paper).
type Scaling int

const (
	// ScalingEstimate is the paper's contribution: a two-flop logarithm
	// estimate that is within one of the correct k, combined with a fixup
	// step that makes the off-by-one case cost nothing.
	ScalingEstimate Scaling = iota
	// ScalingIterative is Steele & White's O(|log v|) search, the slow
	// baseline of Table 2.
	ScalingIterative
	// ScalingFloatLog computes k with a full floating-point logarithm and
	// adjusts by one if needed, the middle row of Table 2 (and the
	// approach David Gay's estimator refines).
	ScalingFloatLog
)

func (s Scaling) String() string {
	switch s {
	case ScalingEstimate:
		return "estimate"
	case ScalingIterative:
		return "iterative"
	case ScalingFloatLog:
		return "floatlog"
	}
	return fmt.Sprintf("Scaling(%d)", int(s))
}

// Result is a converted number V = 0.d₁d₂…dₙ × Bᴷ.
type Result struct {
	// Digits holds the digit values d₁…dₙ (each 0..B-1, not ASCII).
	Digits []byte
	// K is the scale: the radix point sits K digits to the right of the
	// start of Digits (negative K means leading zeros after the point).
	K int
	// NSig is the number of leading significant digits.  Digits[NSig:]
	// are insignificant placeholders (printed as '#' marks) that may be
	// replaced by any digits without changing the value read back.
	// Free-format results always have NSig == len(Digits).
	NSig int
}

// checkArgs validates the common preconditions of the conversion entry
// points: a positive finite value and an output base in range.  The paper's
// algorithms are defined for positive v; callers handle sign, zero, Inf,
// and NaN (the public floatprint package does this).
func checkArgs(v fpformat.Value, base int) error {
	if base < 2 || base > 36 {
		return fmt.Errorf("core: output base %d out of range [2,36]", base)
	}
	if v.Class != fpformat.Normal && v.Class != fpformat.Denormal {
		return fmt.Errorf("core: value class %v is not a positive finite number", v.Class)
	}
	if v.Neg {
		return fmt.Errorf("core: value must be positive; handle sign in the caller")
	}
	if v.F.IsZero() {
		return fmt.Errorf("core: finite value with zero mantissa")
	}
	return nil
}
