package decimal

import (
	"bytes"
	"math"
)

// ShortestFloat64 converts a positive finite v to its shortest decimal
// form for a round-to-nearest-even reader, by walking the exact decimal
// expansions of v and its rounding-range midpoints until the prefix
// distinguishes them (the strconv-legacy realization of Steele & White's
// idea).  Ties round up, matching the paper's Figure 1, so the output is
// digit-identical to internal/core's free format under ReaderNearestEven.
// It returns digit values and K with V = 0.d₁…dₙ × 10ᴷ, or nil for
// non-positive or non-finite input.
func ShortestFloat64(v float64) (digits []byte, k int) {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return nil, 0
	}
	f, e, mant, be := split(v)

	// Exact decimal expansions of the value and the two midpoints.
	d := FromUint64(f)
	d.Shift(e)
	upper := FromUint64(2*f + 1)
	upper.Shift(e - 1)
	var lower *Dec
	if mant == 0 && be > 1 { // binade boundary: narrower gap below
		lower = FromUint64(4*f - 1)
		lower.Shift(e - 2)
	} else {
		lower = FromUint64(2*f - 1)
		lower.Shift(e - 1)
	}
	inclusive := f%2 == 0 // nearest-even reader owns even-mantissa endpoints

	// Walk digits (aligned at upper, whose expansion starts no later than
	// the others) until v's prefix can be rounded down and/or up into the
	// open (or half-open) interval (lower, upper).  upperdelta tracks how
	// far upper has diverged from v: 1 means only by a trailing 9→0 carry
	// chain — rounding up would then land exactly ON upper, which is legal
	// only for an admissible endpoint (this distinction is the historical
	// strconv bug golang.org/issue/29491).
	upperdelta := 0
	for ui := 0; ; ui++ {
		li := ui - upper.DP + lower.DP
		mi := ui - upper.DP + d.DP

		var l byte
		if li >= 0 {
			l = lower.DigitAt(li)
		}
		var m byte
		if mi >= 0 {
			m = d.DigitAt(mi)
		}
		u := upper.DigitAt(ui)

		// Round down (truncate at mi+1 digits) when lower has diverged, or
		// when lower ends at this digit — the truncation then equals lower
		// exactly — and the endpoint is admissible.
		okdown := l != m || inclusive && li+1 == len(lower.D)

		switch {
		case upperdelta == 0 && m+1 < u:
			upperdelta = 2 // upper clearly exceeds the round-up result
		case upperdelta == 0 && m != u:
			upperdelta = 1 // exceeds only if the carry chain breaks
		case upperdelta == 1 && (m != 9 || u != 0):
			upperdelta = 2
		}
		// Round up when upper has diverged and either the endpoint is
		// admissible, or upper is strictly bigger than the round-up result
		// (divergence beyond a carry chain, or more upper digits follow).
		okup := upperdelta > 0 && (inclusive || upperdelta > 1 || ui+1 < len(upper.D))

		switch {
		case okdown && okup:
			d.Round(mi+1, TieUp)
		case okdown:
			d.roundDown(mi + 1)
		case okup:
			d.roundUp(mi + 1)
		default:
			continue
		}
		out := make([]byte, len(d.D))
		copy(out, d.D)
		return out, d.DP
	}
}

// FixedFloat64 converts a positive finite v to exactly n significant
// decimal digits, correctly rounded with the given tie rule, via the
// exact decimal expansion.  With TieEven it is digit-identical to
// baseline.FixedDigits.
func FixedFloat64(v float64, n int, tie TieRule) (digits []byte, k int) {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) || n <= 0 {
		return nil, 0
	}
	bits := math.Float64bits(v)
	mant := bits & (1<<52 - 1)
	be := int(bits >> 52 & 0x7ff)
	var f uint64
	var e int
	if be == 0 {
		f, e = mant, -1074
	} else {
		f, e = mant|1<<52, be-1075
	}
	d := FromUint64(f)
	d.Shift(e)
	d.Round(n, tie)
	out := make([]byte, n)
	copy(out, d.D) // trailing zeros (trimmed by Round) read back as zero values
	return out, d.DP
}

// split decomposes a positive finite v into v = f·2ᵉ, also returning
// the raw mantissa field and biased exponent.
func split(v float64) (f uint64, e int, mant uint64, be int) {
	bits := math.Float64bits(v)
	mant = bits & (1<<52 - 1)
	be = int(bits >> 52 & 0x7ff)
	if be == 0 {
		return mant, -1074, mant, be
	}
	return mant | 1<<52, be - 1075, mant, be
}

// Halfway reports whether a positive finite v (a float64, or a float32
// widened to one) is a final-digit tie of the decimal 0.d₁…dₙ × 10ᵏ,
// digits given as values: v's exact expansion ends in a 5, and digits is
// that expansion with the 5 dropped, rounded down or up.  On such a tie
// the paper's core rounds up where strconv rounds to even, so the
// differential tests use Halfway to tell a tie from a real disagreement.
func Halfway(v float64, digits []byte, k int) bool {
	f, e, _, _ := split(v)
	d := FromUint64(f)
	d.Shift(e)
	n := len(d.D) - 1
	if n < 1 || d.D[n] != 5 {
		return false
	}
	up := d.Clone()
	up.roundUp(n)
	d.roundDown(n)
	for len(digits) > 0 && digits[len(digits)-1] == 0 {
		digits = digits[:len(digits)-1]
	}
	return d.DP == k && bytes.Equal(d.D, digits) || up.DP == k && bytes.Equal(up.D, digits)
}
