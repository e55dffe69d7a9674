package core

import (
	"floatprint/internal/bigrat"
	"floatprint/internal/fpformat"

	"floatprint/internal/bignat"
)

// BasicFreeFormat is a direct transliteration of the paper's Section 2.2
// basic algorithm, using exact (unreduced) rational arithmetic throughout.
// It exists as an executable specification: internal tests require
// FreeFormat, under every scaling strategy, to produce identical output.
// It is far slower than FreeFormat and should not be used for production
// printing.
func BasicFreeFormat(v fpformat.Value, base int, mode ReaderMode) (Result, error) {
	if err := checkArgs(v, base); err != nil {
		return Result{}, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())

	// Step 1: the rounding range (low, high) from v's neighbors.  The
	// successor gap is always bᵉ; the predecessor gap narrows to bᵉ⁻¹ just
	// above a binade boundary.
	vr := valueRat(v)
	b := v.Fmt.Base
	gapHigh := ratPow(b, v.E)
	gapLow := gapHigh
	if v.IsBoundary() && v.E > v.Fmt.MinExp {
		gapLow = ratPow(b, v.E-1)
	}
	low := bigrat.Sub(vr, bigrat.Half(gapLow))
	high := bigrat.Add(vr, bigrat.Half(gapHigh))

	// Step 2: the smallest k with high <= B^k (strict when the endpoint is
	// itself admissible), found by brute iteration as in Steele & White.
	k := 0
	cmpHigh := func(k int) int { return bigrat.Cmp(high, ratPow(base, k)) }
	for tooLow(cmpHigh(k), highOK) {
		k++
	}
	for !tooLow(cmpHigh(k-1), highOK) {
		k--
	}

	// Steps 3 and 4: generate digits of q = v/Bᵏ, stopping as soon as the
	// emitted prefix (or the prefix with its last digit incremented) falls
	// strictly inside the rounding range.
	q := bigrat.Mul(vr, ratPow(base, -k))
	prefix := bigrat.FromUint64(0) // value of 0.d₁…dₙ × Bᵏ so far
	var digits []byte
	for {
		q = bigrat.MulWord(q, bignat.Word(base))
		dNat, frac := q.FloorFrac()
		q = frac
		d, _ := dNat.Uint64()
		digits = append(digits, byte(d))

		weight := ratPow(base, k-len(digits))
		prefix = bigrat.Add(prefix, bigrat.MulNat(weight, bignat.FromUint64(d)))
		upper := bigrat.Add(prefix, weight)

		cond1 := ratGreater(prefix, low, lowOK) // prefix rounds up to v
		cond2 := ratLess(upper, high, highOK)   // incremented prefix rounds down to v
		if !cond1 && !cond2 {
			continue
		}
		up := false
		switch {
		case cond1 && cond2:
			// Return whichever is closer to v; ties round up as in Figure 1.
			distDown := bigrat.Sub(vr, prefix)
			distUp := bigrat.Sub(upper, vr)
			up = bigrat.Cmp(distUp, distDown) <= 0
		case cond2:
			up = true
		}
		if up {
			digits, k = incrementLast(digits, base, k)
		}
		digits = trimTrailingZeros(digits)
		return Result{Digits: digits, K: k, NSig: len(digits)}, nil
	}
}

// tooLow interprets a comparison of high against Bᵏ: the scale is too low
// when high > Bᵏ, or high == Bᵏ with the endpoint admissible.
func tooLow(cmp int, highOK bool) bool {
	if highOK {
		return cmp >= 0
	}
	return cmp > 0
}

func ratGreater(a, b bigrat.Rat, orEqual bool) bool {
	c := bigrat.Cmp(a, b)
	return c > 0 || (orEqual && c == 0)
}

func ratLess(a, b bigrat.Rat, orEqual bool) bool {
	c := bigrat.Cmp(a, b)
	return c < 0 || (orEqual && c == 0)
}

// valueRat returns the exact rational value of a finite v = f × bᵉ.
func valueRat(v fpformat.Value) bigrat.Rat {
	b := v.Fmt.Base
	if v.E >= 0 {
		return bigrat.FromNat(bignat.Mul(v.F, bignat.Powers(b).Pow(uint(v.E))))
	}
	return bigrat.New(v.F, bignat.Powers(b).Pow(uint(-v.E)))
}

// ratPow returns baseᵏ as an exact rational, k of either sign.
func ratPow(base, k int) bigrat.Rat {
	if k >= 0 {
		return bigrat.FromNat(bignat.Powers(base).Pow(uint(k)))
	}
	return bigrat.New(bignat.Nat{1}, bignat.Powers(base).Pow(uint(-k)))
}
