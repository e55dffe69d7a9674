package core

import (
	"fmt"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
	"floatprint/internal/trace"
)

// FixedFormat converts the positive finite value v to a correctly rounded
// digit string in the given base whose last digit has weight Bʲ (an
// *absolute* digit position in the paper's terms: j = 0 stops at the units
// digit, j = −2 at the hundredths digit).  Digits beyond the value's
// precision are reported as insignificant via Result.NSig and rendered as
// '#' marks (Section 4 of the paper).  The result always satisfies
// len(Digits) == K − j.
//
// The reader mode plays the same endpoint-admissibility role as in free
// format; ReaderUnknown reproduces the paper exactly.
func FixedFormat(v fpformat.Value, base int, mode ReaderMode, j int) (Result, error) {
	return FixedFormatTraced(v, base, mode, j, nil)
}

// FixedFormatTraced is FixedFormat copying the conversion's execution
// record into tr when non-nil; with tr nil it is exactly FixedFormat.
func FixedFormatTraced(v fpformat.Value, base int, mode ReaderMode, j int, tr *trace.Conversion) (Result, error) {
	if err := checkArgs(v, base); err != nil {
		return Result{}, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())
	st := newState(v, base, lowOK, highOK)
	defer st.release()
	res, err := st.fixed(v, mode, j)
	if err != nil {
		return Result{}, err
	}
	st.count()
	if tr != nil {
		*tr = st.rec
	}
	return res, nil
}

// fixed runs the fixed-format algorithm at position j on st, freshly
// initialized for v under mode.  It leaves counting the record to the
// caller, so FixedFormatRelativeTraced can count only the pass whose
// digits it returns.
func (st *state) fixed(v fpformat.Value, mode ReaderMode, j int) (Result, error) {
	st.rec.Backend, st.rec.Mode, st.rec.Position = trace.BackendExactFixed, mode.String(), j

	// Compute the output half-ulp Bʲ/2 as a numerator over the common
	// denominator s, into the hn scratch.  For negative j every quantity
	// is pre-scaled by B⁻ʲ so the half-ulp stays an integer (s always
	// carries a factor of 2).  Products ping-pong through the t1 scratch,
	// as in scaleByPow, so the pooled buffers are reused.
	if j >= 0 {
		st.t1 = bignat.ShrInto(st.t1, st.s, 1)
		st.hn = bignat.MulInto(st.hn, st.t1, st.pows.Pow(uint(j)))
	} else {
		st.hn = bignat.ShrInto(st.hn, st.s, 1)
		factor := st.pows.Pow(uint(-j))
		st.r, st.t1 = bignat.MulInto(st.t1, st.r, factor), st.r
		st.s, st.t1 = bignat.MulInto(st.t1, st.s, factor), st.s
		st.mp, st.t1 = bignat.MulInto(st.t1, st.mp, factor), st.mp
		st.mm, st.t1 = bignat.MulInto(st.t1, st.mm, factor), st.mm
	}

	// Widen the rounding range to the union of the value's own range and
	// the requested precision ("let low be the lesser of (v+v⁻)/2 and
	// v − Bʲ/2, and let high be the greater of (v+v⁺)/2 and v + Bʲ/2").
	// An endpoint contributed by the output precision is itself a valid
	// correctly rounded output, so the corresponding termination condition
	// becomes inclusive.
	if bignat.Cmp(st.hn, st.mp) >= 0 {
		st.mp = bignat.CopyInto(st.mp, st.hn) // copied: m⁺ and m⁻ are mutated independently
		st.highOK = true
	}
	if bignat.Cmp(st.hn, st.mm) >= 0 {
		st.mm = bignat.CopyInto(st.mm, st.hn)
		st.lowOK = true
	}

	// Scale.  The expanded high endpoint can dwarf v (tiny value printed
	// to a coarse position), which the value-based estimate cannot see, so
	// the estimate is floored at j−1; the fixup loop does the rest.
	floorK := j - 1
	k := st.scaleEstimate(v, &floorK)
	if k <= j {
		return st.fixedAllRounded(j, k)
	}

	maxDigits := k - j
	digits := make([]byte, 0, maxDigits)
	var up bool
	for {
		digits = append(digits, st.nextDigit())
		if t := st.conditions(); t.tc1 || t.tc2 {
			up = st.roundUp(len(digits), t)
			break
		}
		if len(digits) == maxDigits {
			// Unreachable: with m± at least Bʲ/2 a termination condition
			// must hold by position k−j (see DESIGN.md); guard anyway.
			return Result{}, fmt.Errorf("core: fixed-format loop overran position %d (internal bug)", j)
		}
		st.stepMul()
	}
	if up {
		// A rippling carry can grow the digit string by one and raise K,
		// which also moves the final position: len stays == K − j.
		var carried int
		digits, carried = incrementLast(digits, st.base, k)
		st.rec.CarriedK = carried != k
		k = carried
		maxDigits = k - j
	}

	// Fill the remaining positions: zeros while the digit position is
	// still significant, then insignificance marks.  Position t > n is
	// insignificant when incrementing the digit at position t−1 — adding
	// B^(k−(t−1)) to the output value P — yields a number that still reads
	// back within the rounding range: P + B^(k−(t−1)) <= high, which in
	// the scaled integers is (r + m⁺ − up·s)·B^(t−1−n) >= s.  (Inclusive
	// comparison: the bound is the unattained supremum of the possible
	// tails, so equality keeps every tail strictly inside.)
	nsig := len(digits)
	if len(digits) < maxDigits {
		acc := bignat.AddInto(st.hn, st.r, st.mp)
		if up {
			acc = bignat.SubInPlace(acc, st.s)
		}
		marking := false
		for m := len(digits); m < maxDigits; m++ {
			if !marking && bignat.Cmp(acc, st.s) >= 0 {
				marking = true
				nsig = m
			}
			digits = append(digits, 0)
			if !marking {
				acc = bignat.MulWordInPlace(acc, bignat.Word(st.base))
			}
		}
		st.hn = acc
		if !marking {
			nsig = len(digits)
		}
	}
	return st.result(digits, k, nsig), nil
}

// fixedAllRounded handles k == j, where the requested position is at or
// above the leading digit of high and the output is a single digit at
// position j: 0 when v < Bʲ/2, 1 (i.e. the value Bʲ) when v > Bʲ/2, ties
// rounding up, which it records as the rounding.  After scaling,
// v·B^(1−k) = r/s, so the comparison v ≷ Bʲ/2 = Bᵏ/2 becomes 2r ≷ B·s.
func (st *state) fixedAllRounded(j, k int) (Result, error) {
	if k < j {
		return Result{}, fmt.Errorf("core: scale k=%d below requested position j=%d (internal bug)", k, j)
	}
	st.hn = bignat.MulWordInPlace(bignat.CopyInto(st.hn, st.r), 2)
	st.t1 = bignat.MulWordInPlace(bignat.CopyInto(st.t1, st.s), bignat.Word(st.base))
	st.rec.RoundedUp = bignat.Cmp(st.hn, st.t1) >= 0
	d := byte(0)
	if st.rec.RoundedUp {
		d = 1
	}
	return st.result([]byte{d}, j+1, 1), nil
}

// FixedFormatRelative converts v to exactly n significant digit positions
// (a *relative* digit position: the count of digits to print).  The
// absolute position j = K − n depends on K, which itself can depend on j
// when rounding at the requested precision carries into a new leading
// digit (9.97 printed to two digits is "10"); the paper resolves the cycle
// by estimating K from v alone and refining once, which the loop below
// performs (it converges in at most two passes).
func FixedFormatRelative(v fpformat.Value, base int, mode ReaderMode, n int) (Result, error) {
	return FixedFormatRelativeTraced(v, base, mode, n, nil)
}

// FixedFormatRelativeTraced is FixedFormatRelative copying the
// conversion's execution record into tr when non-nil.  Each refinement
// pass starts a fresh record, so the copy describes the pass that
// produced the returned digits, with Refinements counting the passes
// taken.  The telemetry counters likewise count only that pass: one
// conversion, one estimator run.
func FixedFormatRelativeTraced(v fpformat.Value, base int, mode ReaderMode, n int, tr *trace.Conversion) (Result, error) {
	if n <= 0 {
		return Result{}, fmt.Errorf("core: digit count %d must be positive", n)
	}
	if err := checkArgs(v, base); err != nil {
		return Result{}, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())
	st := statePool.Get().(*state)
	defer st.release()
	j := estimateK(v, base) - n
	for pass := 1; pass <= 4; pass++ {
		st.init(v, base, lowOK, highOK)
		res, err := st.fixed(v, mode, j)
		if err != nil {
			return Result{}, err
		}
		if len(res.Digits) == n {
			st.rec.RelativeN, st.rec.Refinements = n, pass
			st.count()
			if tr != nil {
				*tr = st.rec
			}
			return res, nil
		}
		j = res.K - n
	}
	return Result{}, fmt.Errorf("core: relative position failed to converge for n=%d (internal bug)", n)
}
