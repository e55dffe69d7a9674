package core

import (
	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// This file implements the directed variants of the paper's free-format
// loop for interval I/O: instead of the shortest string inside the full
// rounding range (low, high), FloorFormat produces the shortest string in
// the lower half-gap (v − m⁻, v] and CeilFormat the shortest in the upper
// half-gap [v, v + m⁺).  One-sided output is what outward-rounded interval
// endpoints need — a printed lower bound must not exceed the value it
// bounds — and the half-gap constraint keeps the output *identifying*:
// because it stays strictly nearer v than either neighbor's midpoint, any
// round-to-nearest reader recovers exactly v from it, and a directed
// reader recovers v or the adjacent value on the bound's own side, so
// enclosure survives every reader mode.
//
// The loops are the §3 digit loop with a one-sided stopping condition.
// Where the nearest loop stops when rₙ < m⁻ₙ *or* rₙ + m⁺ₙ > sₙ and then
// picks the closer side, the floor loop may only ever truncate, so it
// stops at the smallest n with rₙ < m⁻ₙ (strict: the midpoint itself is
// excluded, keeping the output tie-free under every nearest tie rule);
// the ceil loop may only ever round up, so it stops at the smallest n
// with rₙ + m⁺ₙ > sₙ and increments the last digit — or at rₙ = 0, where
// v's own digits are exact and already the tightest value ≥ v.

// FloorFormat converts the positive finite value v to the shortest digit
// string whose exact value lies in (v − m⁻, v]: the largest-valued
// shortest truncation that still identifies v from below.  The last digit
// is never incremented, so the result never exceeds v; reading it back
// under any round-to-nearest mode yields exactly v, and under a
// toward-positive reader it yields v as well (the value is within v's
// lower half-gap).  Only a toward-negative reader can move it, and then
// only down to v's predecessor — the direction an interval lower bound is
// allowed to move.
func FloorFormat(v fpformat.Value, base int, method Scaling) (Result, error) {
	return directedFormat(v, base, method, false)
}

// CeilFormat converts the positive finite value v to the shortest digit
// string whose exact value lies in [v, v + m⁺): the smallest-valued
// shortest string that identifies v from above.  It is the mirror image
// of FloorFormat for interval upper bounds.
func CeilFormat(v fpformat.Value, base int, method Scaling) (Result, error) {
	return directedFormat(v, base, method, true)
}

func directedFormat(v fpformat.Value, base int, method Scaling, up bool) (Result, error) {
	if err := checkArgs(v, base); err != nil {
		return Result{}, err
	}
	// lowOK/highOK are irrelevant here: the one-sided conditions below are
	// strict by construction, which corresponds to the conservative
	// ReaderUnknown bounds in the scale search.
	st := newState(v, base, false, false)
	defer st.release()
	k := st.scale(method, v)
	var digits []byte
	if up {
		digits, k = st.generateCeil(k)
	} else {
		digits, k = st.generateFloor(k)
	}
	res := st.result(digits, k, len(digits))
	st.count()
	return res, nil
}

// generateFloor runs the truncating digit loop: emit digits of v until the
// remainder drops strictly below m⁻, i.e. until the truncated prefix is
// within v's lower half-gap.  The stopping digit is never 0 (a zero digit
// leaves r and m⁻ scaled by the same factor B, so the condition would
// already have held one position earlier), which is why no trailing-zero
// trim is needed; a leading zero can appear when the conservative scale
// overshoots (v just below a power of B that is not itself representable),
// and is trimmed with its K adjustment.
func (st *state) generateFloor(k int) ([]byte, int) {
	digits := make([]byte, 0, 24)
	for {
		digits = append(digits, st.nextDigit())
		if bignat.Cmp(st.r, st.mm) < 0 {
			st.rec.Iterations, st.rec.TC1 = len(digits), true
			return trimLeadingZeros(digits, k)
		}
		st.stepMul()
	}
}

// generateCeil runs the rounding-up digit loop: emit digits of v until
// either the remainder is exactly zero (v's digits terminate — v itself is
// the tightest value ≥ v) or incrementing the last digit lands inside the
// upper half-gap (r + m⁺ > s strictly, the upper §3 stopping condition
// made one-sided).  Exactness is checked first: at equal length the exact
// prefix is tighter than the incremented one.
func (st *state) generateCeil(k int) ([]byte, int) {
	digits := make([]byte, 0, 24)
	for {
		digits = append(digits, st.nextDigit())
		if st.r.IsZero() {
			st.rec.Iterations, st.rec.TC1 = len(digits), true
			return trimLeadingZeros(digits, k)
		}
		st.hn = bignat.AddInto(st.hn, st.r, st.mp)
		if bignat.Cmp(st.hn, st.s) > 0 {
			st.rec.Iterations, st.rec.TC2, st.rec.RoundedUp = len(digits), true, true
			digits, k = incrementLast(digits, st.base, k)
			return trimLeadingZeros(trimTrailingZeros(digits), k)
		}
		st.stepMul()
	}
}

// trimLeadingZeros drops leading zero digits, lowering the scale K in
// step.  The two-sided nearest loop cannot produce them (its first emitted
// digit is always significant by the minimality of k against the full
// range), but the one-sided loops track v itself, which can sit a digit
// position below the conservative scale: the largest float64 under 10^23,
// for instance, has high > 10^23 and so k = 24, yet its own first digit at
// that scale is 0.
func trimLeadingZeros(digits []byte, k int) ([]byte, int) {
	for len(digits) > 1 && digits[0] == 0 {
		digits = digits[1:]
		k--
	}
	return digits, k
}
