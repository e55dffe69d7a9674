package core

import (
	"fmt"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
	"floatprint/internal/stats"
	"floatprint/internal/trace"
)

// termination captures which of the paper's two stopping conditions held at
// the final digit.
type termination struct {
	tc1 bool // r ≤ m⁻ (or <): the digits as generated round up to v
	tc2 bool // r + m⁺ ≥ s (or >): incrementing the last digit rounds down to v
}

// conditions evaluates the termination conditions against the current
// remainder (Section 3.1: "Stop at the smallest n for which rₙ < m⁻ₙ or
// rₙ + m⁺ₙ > sₙ", with the inequalities made inclusive when the
// corresponding endpoint itself rounds to v).
func (st *state) conditions() termination {
	var t termination
	if st.lowOK {
		t.tc1 = bignat.Cmp(st.r, st.mm) <= 0
	} else {
		t.tc1 = bignat.Cmp(st.r, st.mm) < 0
	}
	st.hn = bignat.AddInto(st.hn, st.r, st.mp)
	if st.highOK {
		t.tc2 = bignat.Cmp(st.hn, st.s) >= 0
	} else {
		t.tc2 = bignat.Cmp(st.hn, st.s) > 0
	}
	return t
}

// nextDigit extracts one digit: d = ⌊r/s⌋, r = r mod s.  The scale
// invariant guarantees 0 <= d < B; a violation means a scaling bug, which
// is worth crashing loudly over rather than emitting wrong digits.
func (st *state) nextDigit() byte {
	d, r := bignat.DivModSmallQuotientInPlace(st.r, st.s)
	if d >= bignat.Word(st.base) {
		panic(fmt.Sprintf("core: digit %d out of range for base %d (scaling bug)", d, st.base))
	}
	st.r = r
	return byte(d)
}

// roundUp decides, once a termination condition holds at the
// iterations-th digit, whether the last digit must be incremented:
// condition (2) alone forces rounding up, condition (1) alone forces
// rounding down, and when both hold the closer candidate wins, rounding up
// on a tie as in the paper's Figure 1.  It records how the loop ended.
func (st *state) roundUp(iterations int, t termination) bool {
	up := t.tc2
	if t.tc1 && t.tc2 {
		up = st.mulBy2Cmp() >= 0
	}
	st.rec.Iterations = iterations
	st.rec.TC1, st.rec.TC2, st.rec.TieBreak = t.tc1, t.tc2, t.tc1 && t.tc2
	st.rec.RoundedUp = up
	return up
}

// generate runs the free-format digit loop, returning the digits and
// whether the final digit is to be incremented.  The digit slice is always
// freshly allocated (it escapes into the Result, never back into the pool);
// 24 positions cover every binary64 shortest form (at most 17 digits) and
// most other formats without regrowth.
func (st *state) generate() (digits []byte, up bool) {
	digits = make([]byte, 0, 24)
	for {
		digits = append(digits, st.nextDigit())
		if t := st.conditions(); t.tc1 || t.tc2 {
			return digits, st.roundUp(len(digits), t)
		}
		st.stepMul()
	}
}

// result records the conversion's outcome V = 0.d₁…dₙ × Bᴷ, with nsig
// significant digits, and returns it.
func (st *state) result(digits []byte, k, nsig int) Result {
	st.rec.K, st.rec.Digits, st.rec.NSig = k, len(digits), nsig
	return Result{Digits: digits, K: k, NSig: nsig}
}

// count adds the finished conversion's record to the internal/stats
// Trace* counters: whether the §3.2 estimator ran and its fixup fired,
// the digit loop's iterations, the significant digits it produced, and
// whether its last digit rounded up.  Every exact entry point calls it
// once per conversion, so plain and traced calls count alike.
func (st *state) count() {
	if !stats.Enabled() {
		return
	}
	if st.rec.ScaleMethod == ScalingEstimate.String() {
		stats.TraceEstimates.Inc()
		if st.rec.FixupSteps > 0 {
			stats.TraceFixups.Inc()
		}
	}
	stats.TraceIterations.Add(uint64(st.rec.Iterations))
	stats.TraceDigits.Add(uint64(st.rec.NSig))
	if st.rec.RoundedUp {
		stats.TraceRoundUps.Inc()
	}
}

// incrementLast adds one to the final digit, propagating carries.  If the
// carry ripples past the first digit the result gains a leading 1 and the
// scale K rises by one (footnote 2 of the paper).  The returned slice may
// be the input slice modified in place.
func incrementLast(digits []byte, base int, k int) ([]byte, int) {
	for i := len(digits) - 1; i >= 0; i-- {
		if digits[i] != byte(base-1) {
			digits[i]++
			return digits, k
		}
		digits[i] = 0
	}
	return append([]byte{1}, digits...), k + 1
}

// trimTrailingZeros removes trailing zero digits (free format only, where
// a trailing zero would contradict minimality except transiently after a
// rippling carry).
func trimTrailingZeros(digits []byte) []byte {
	n := len(digits)
	for n > 1 && digits[n-1] == 0 {
		n--
	}
	return digits[:n]
}

// FreeFormat converts the positive finite value v to the shortest digit
// string in the given output base that reads back as v under the given
// reader rounding mode, using the selected scaling strategy.  The result
// is correctly rounded: |V − v| is at most half the weight of the last
// digit (output conditions (1) and (2) of Section 2.2).
func FreeFormat(v fpformat.Value, base int, method Scaling, mode ReaderMode) (Result, error) {
	return FreeFormatTraced(v, base, method, mode, nil)
}

// FreeFormatTraced is FreeFormat copying the conversion's execution
// record into tr when non-nil: the Table-1 case, scale estimate versus
// final scale (whether the penalty-free fixup fired), generate-loop
// iteration count, and the final rounding decision.  The core records
// every conversion, so tracing never changes the digits or the
// counters: with tr nil this is exactly FreeFormat, minus the copy.
func FreeFormatTraced(v fpformat.Value, base int, method Scaling, mode ReaderMode, tr *trace.Conversion) (Result, error) {
	if err := checkArgs(v, base); err != nil {
		return Result{}, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())
	st := newState(v, base, lowOK, highOK)
	defer st.release()
	st.rec.Backend, st.rec.Mode = trace.BackendExactFree, mode.String()
	k := st.scale(method, v)
	digits, up := st.generate()
	if up {
		var carried int
		digits, carried = incrementLast(digits, base, k)
		st.rec.CarriedK = carried != k
		k = carried
	}
	digits = trimTrailingZeros(digits)
	res := st.result(digits, k, len(digits))
	st.count()
	if tr != nil {
		*tr = st.rec
	}
	return res, nil
}
