package core

import (
	"math"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// estimateSlack is the constant subtracted from floating-point logarithm
// estimates so that rounding error can never push the estimate above the
// true value ("a small constant (chosen to be slightly greater than the
// largest possible error) is subtracted ... so that the ceiling of the
// result will be either k or k−1").
const estimateSlack = 1e-10

// scale determines the scale factor k and adjusts the state so digit
// generation can begin, using the selected strategy.  On return the state
// is positioned for generate: the first digit is ⌊r/s⌋ (the initial ×B
// multiplication of the paper's Figure 1 generate has already been folded
// in, or skipped when the penalty-free fixup made it unnecessary).  Each
// strategy records its estimate and the final k (scaled).
func (st *state) scale(method Scaling, v fpformat.Value) int {
	switch method {
	case ScalingIterative:
		return st.scaleIterative()
	case ScalingFloatLog:
		return st.scaleFloatLog(v)
	}
	return st.scaleEstimate(v, nil)
}

// scaled records a finished scaling: the strategy, its initial guess
// est, and the k it settled on, whose difference is the fixup.  It
// returns k.
func (st *state) scaled(method Scaling, est, k int) int {
	st.rec.ScaleMethod = method.String()
	st.rec.EstimateK, st.rec.ScaleK, st.rec.FixupSteps = est, k, k-est
	return k
}

// scaleIterative is Steele & White's search: repeatedly multiply one side
// by B until the scale is correct.  It performs O(|log_B v|)
// high-precision operations — the first row of Table 2.  It has no
// estimate to be wrong, so it records the found k as its own estimate.
func (st *state) scaleIterative() int {
	k := 0
	for st.tooLow() {
		k++
		st.rec.Ops++
		st.s = bignat.MulWordInPlace(st.s, bignat.Word(st.base))
	}
	for st.tooHigh() {
		k--
		st.stepMul()
	}
	st.stepMul() // fold in generate's entry multiplication
	return st.scaled(ScalingIterative, k, k)
}

// scaleFloatLog estimates k with a floating-point logarithm of v itself,
// then verifies and adjusts by one if necessary — the middle row of
// Table 2.  Unlike the penalty-free fixup below, an off-by-one estimate
// here pays an extra multiplication of s by B, as in the paper's Figure 2.
func (st *state) scaleFloatLog(v fpformat.Value) int {
	est := int(math.Ceil(logBValue(v, st.base) - estimateSlack))
	st.scaleByPow(est)
	k := est
	for st.tooLow() {
		k++
		st.rec.Ops++
		st.s = bignat.MulWordInPlace(st.s, bignat.Word(st.base))
	}
	for st.tooHigh() {
		k--
		st.stepMul()
	}
	st.stepMul()
	return st.scaled(ScalingFloatLog, est, k)
}

// scaleEstimate is the paper's fast scaling (Section 3.2): a two-flop
// estimate that never overshoots and undershoots by less than one, plus a
// fixup that charges nothing when the estimate is k−1 (the entry
// multiplication of generate is simply skipped, since r·B/(s·B) = r/s).
//
// floorK, when non-nil, lower-bounds the estimate; the fixed-format driver
// passes j−1 because its expanded high endpoint can exceed v by many
// orders of magnitude, which the value-based estimate knows nothing about.
func (st *state) scaleEstimate(v fpformat.Value, floorK *int) int {
	est := estimateK(v, st.base)
	if floorK != nil && *floorK > est {
		est = *floorK
	}
	st.scaleByPow(est)
	k := est

	if st.tooLow() {
		// Penalty-free fixup: k was one too low.  Rather than multiplying
		// s by B and then having generate multiply r, m⁺, m⁻ by B (which
		// would cancel), skip both; the state is now implicitly one digit
		// position "folded in" (r/s = v·B^(1−k)).
		k++
		// When the input base exceeds the output base, or a floorK pushed
		// the estimate away from the value-derived one, the estimate can be
		// short by more than one; each further step costs a multiplication
		// of s, restoring correctness at iterative cost.  In the common
		// case (b <= B, no floor) the paper's bound guarantees the estimate
		// is within one, so no re-check runs at all — that absence is what
		// makes the fixup penalty-free.
		if v.Fmt.Base > st.base || floorK != nil {
			for {
				st.rec.Ops += 3 // add + multiply + compare
				st.hn = bignat.AddInto(st.hn, st.r, st.mp)
				st.t1 = bignat.MulWordInPlace(bignat.CopyInto(st.t1, st.s), bignat.Word(st.base))
				c := bignat.Cmp(st.hn, st.t1)
				if !(c > 0 || (c == 0 && st.highOK)) {
					break
				}
				k++
				st.rec.Ops++
				st.s = bignat.MulWordInPlace(st.s, bignat.Word(st.base))
			}
		}
		return st.scaled(ScalingEstimate, est, k)
	}
	for st.tooHigh() {
		// Unreachable for the paper's estimator (it never overshoots) but
		// kept so that a deliberately wrong floorK or a future estimator
		// bug degrades to extra work instead of wrong digits.
		k--
		st.stepMul()
	}
	st.stepMul()
	return st.scaled(ScalingEstimate, est, k)
}

// estimateK computes the paper's estimate ⌈(e + len_b(f) − 1)·log_B(b) − ε⌉
// of ⌈log_B v⌉.  Because (e + len_b(f) − 1) is ⌊log_b v⌋, the estimate
// never exceeds ⌈log_B v⌉ and (for b = 2, B > 2) undershoots by less than
// log_B 2 + ε < 1, so fixup needs at most one step.
func estimateK(v fpformat.Value, base int) int {
	b := v.Fmt.Base
	var l int
	if b == 2 {
		l = v.F.BitLen()
	} else {
		l = digitLength(v.F, b)
	}
	est := float64(v.E+l-1)*logOf(b, base) - estimateSlack
	return int(math.Ceil(est))
}

// logOf returns log_base2(base1) ≈ ln b / ln B, memoized for the 35×35
// grid of small bases the way Figure 2 memoizes 1/log(B).
func logOf(b, B int) float64 {
	return logTable[b] / logTable[B]
}

// logTable[i] = ln i for 2 <= i <= 36.
var logTable = func() [37]float64 {
	var t [37]float64
	for i := 2; i <= 36; i++ {
		t[i] = math.Log(float64(i))
	}
	return t
}()

// digitLength returns the length of f in base-b digits (f > 0).
func digitLength(f bignat.Nat, b int) int {
	// Estimate from the bit length, then correct by comparing against
	// b^(l-1) and b^l.
	pows := bignat.Powers(b)
	l := int(float64(f.BitLen())*logOf(2, b)) + 1
	if l < 1 {
		l = 1
	}
	for l > 1 && bignat.Cmp(f, pows.Pow(uint(l-1))) < 0 {
		l--
	}
	for bignat.Cmp(f, pows.Pow(uint(l))) >= 0 {
		l++
	}
	return l
}

// logBValue approximates log_B(v) = (ln f + e·ln b)/ln B using only the top
// word of the mantissa, so it works even for formats (binary128, synthetic
// wide formats) whose values overflow float64.
func logBValue(v fpformat.Value, base int) float64 {
	f := v.F
	bl := f.BitLen()
	var top float64
	var shift int
	if bl <= 64 {
		u, _ := f.Uint64()
		top, shift = float64(u), 0
	} else {
		shift = bl - 64
		u, _ := bignat.Shr(f, uint(shift)).Uint64()
		top = float64(u)
	}
	lnF := math.Log(top) + float64(shift)*logTable[2]
	return (lnF + float64(v.E)*logTable[v.Fmt.Base]) / logTable[base]
}

// mulBy2Cmp reports whether 2r > s, 2r == s, or 2r < s as +1, 0, -1: the
// "which candidate is closer to v" comparison at termination.  The doubled
// remainder lands in the t1 scratch, so the comparison allocates nothing.
func (st *state) mulBy2Cmp() int {
	st.t1 = bignat.MulWordInPlace(bignat.CopyInto(st.t1, st.r), 2)
	return bignat.Cmp(st.t1, st.s)
}

// EstimateScale exposes the paper's two-flop scale-factor estimate
// (Section 3.2) for the estimator-accuracy ablation: it returns
// ⌈(e + len_b(f) − 1)·log_B(b) − ε⌉ without any fixup.
func EstimateScale(v fpformat.Value, base int) int {
	return estimateK(v, base)
}

// ExactScale returns the true scale factor k for free-format conversion of
// v (the smallest k with high <= Bᵏ under the given reader mode), computed
// by the exact iterative search.  It serves as ground truth when measuring
// estimator accuracy.
func ExactScale(v fpformat.Value, base int, mode ReaderMode) (int, error) {
	if err := checkArgs(v, base); err != nil {
		return 0, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())
	st := newState(v, base, lowOK, highOK)
	defer st.release()
	return st.scaleIterative(), nil
}

// ScaleOps runs only the scaling phase of a conversion and reports the
// scale factor together with the number of high-precision integer
// operations it performed — the quantity behind the paper's Table 2 claim
// that iterative scaling needs O(|log v|) operations while the estimator
// needs O(1).
func ScaleOps(v fpformat.Value, base int, method Scaling, mode ReaderMode) (k, ops int, err error) {
	if err := checkArgs(v, base); err != nil {
		return 0, 0, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())
	st := newState(v, base, lowOK, highOK)
	defer st.release()
	k = st.scale(method, v)
	return k, st.rec.Ops, nil
}
