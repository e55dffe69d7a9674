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

// roundUp decides, once a termination condition holds, whether the last
// digit must be incremented: condition (2) alone forces rounding up,
// condition (1) alone forces rounding down, and when both hold the closer
// candidate wins, rounding up on a tie as in the paper's Figure 1.
func (st *state) roundUp(t termination) bool {
	switch {
	case t.tc1 && !t.tc2:
		return false
	case t.tc2 && !t.tc1:
		return true
	}
	return st.mulBy2Cmp() >= 0
}

// generate runs the free-format digit loop, returning the digits and
// whether the final digit is to be incremented.  The digit slice is always
// freshly allocated (it escapes into the Result, never back into the pool);
// 24 positions cover every binary64 shortest form (at most 17 digits) and
// most other formats without regrowth.
func (st *state) generate() (digits []byte, up bool) {
	digits = make([]byte, 0, 24)
	for {
		d := st.nextDigit()
		digits = append(digits, d)
		t := st.conditions()
		if t.tc1 || t.tc2 {
			up = st.roundUp(t)
			st.recordLoop(len(digits), t, up)
			return digits, up
		}
		st.stepMul()
	}
}

// recordLoop fills the generate-loop portion of the trace: iteration
// count, the termination condition(s) that fired, and the final rounding
// decision.  One call per conversion, after the loop — the loop body
// itself carries no instrumentation.
func (st *state) recordLoop(iterations int, t termination, up bool) {
	if st.tr == nil {
		return
	}
	st.tr.Iterations = iterations
	st.tr.TC1, st.tr.TC2 = t.tc1, t.tc2
	st.tr.TieBreak = t.tc1 && t.tc2
	st.tr.RoundedUp = up
}

// tally is one finished exact conversion's contribution to the
// internal/stats Trace* counters: whether the §3.2 estimator ran and its
// fixup fired, the digit loop's iterations, the significant digits it
// produced, and whether its last digit rounded up.  Every exact digit
// loop (free, fixed, floor, ceil) ends by building one, and the
// conversion adds it once, so plain and traced calls count alike.
type tally struct {
	estimated, fixup   bool
	iterations, digits int
	up                 bool
}

// loop builds the tally of st's conversion for its finished digit loop.
func (st *state) loop(iterations, digits int, up bool) tally {
	return tally{st.estimated, st.fixup, iterations, digits, up}
}

// add counts t.  It inlines to one atomic-bool load when collection is
// off.
func (t tally) add() {
	if stats.Enabled() {
		t.count()
	}
}

// count adds t to the internal/stats Trace* counters.
func (t tally) count() {
	if t.estimated {
		stats.TraceEstimates.Inc()
		if t.fixup {
			stats.TraceFixups.Inc()
		}
	}
	stats.TraceIterations.Add(uint64(t.iterations))
	stats.TraceDigits.Add(uint64(t.digits))
	if t.up {
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

// FreeFormatTraced is FreeFormat recording the conversion's execution
// trace into tr when non-nil: the Table-1 case, scale estimate versus
// final scale (whether the penalty-free fixup fired), generate-loop
// iteration count, and the final rounding decision.  The record is reset
// before filling.  Tracing never changes the digits: with tr nil this is
// exactly FreeFormat, and every instrumentation point is a nil check.
func FreeFormatTraced(v fpformat.Value, base int, method Scaling, mode ReaderMode, tr *trace.Conversion) (Result, error) {
	if err := checkArgs(v, base); err != nil {
		return Result{}, err
	}
	lowOK, highOK := mode.BoundaryOK(v.MantissaEven())
	st := newState(v, base, lowOK, highOK)
	st.tr = tr
	defer st.release()
	if tr != nil {
		tr.Reset()
		tr.Backend = trace.BackendExactFree
		tr.Base = base
		tr.Mode = mode.String()
		tr.LowOK, tr.HighOK = lowOK, highOK
		tr.Table1Case = table1Case(v)
	}
	k := st.scale(method, v)
	digits, up := st.generate()
	iterations := len(digits)
	if up {
		var carried int
		digits, carried = incrementLast(digits, base, k)
		if tr != nil {
			tr.CarriedK = carried != k
		}
		k = carried
	}
	digits = trimTrailingZeros(digits)
	st.loop(iterations, len(digits), up).add()
	if tr != nil {
		tr.K = k
		tr.Digits = len(digits)
		tr.NSig = len(digits)
		tr.Ops = st.ops
	}
	return Result{Digits: digits, K: k, NSig: len(digits)}, nil
}
