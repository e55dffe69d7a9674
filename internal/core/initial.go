package core

import (
	"sync"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
	"floatprint/internal/trace"
)

// state carries the integer-arithmetic representation of the conversion:
// the scaled value v = r/s and the half-gap widths m⁺/s = (v⁺−v)/2 and
// m⁻/s = (v−v⁻)/2, all sharing the explicit common denominator s
// (Section 3.1 of the paper).
//
// States are pooled: a conversion obtains one from newState and returns it
// via release, so the limb buffers behind r, s, m⁺, m⁻ and the scratch
// values are reused across conversions instead of reallocated.  Nothing in
// a Result may alias state storage (digit slices are always fresh).
type state struct {
	r, s, mp, mm  bignat.Nat
	hn            bignat.Nat // scratch for the r+m⁺ comparisons
	t1            bignat.Nat // scratch for ping-pong products (scaleByPow)
	lowOK, highOK bool
	base          int              // output base B
	pows          *bignat.PowCache // powers of B
	ops           int              // high-precision operations performed (Table 2 metric)
	// estimated and fixup record whether scaleEstimate ran and whether
	// its fixup fired, for the conversion's telemetry count (loop).
	estimated, fixup bool
	// tr, when non-nil, receives the execution trace of this conversion.
	// Every instrumentation point below is guarded by a nil check, so the
	// untraced hot path pays one predicted branch per recording site and
	// nothing else.
	tr *trace.Conversion
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// release returns st to the pool.  The limb buffers stay attached so the
// next conversion starts with warmed capacity; the trace pointer must not
// be (a pooled state may surface on another goroutine).
func (st *state) release() {
	st.pows = nil
	st.tr = nil
	statePool.Put(st)
}

// newState initializes r, s, m⁺, and m⁻ from the mantissa and exponent of v
// according to Table 1 of the paper.  The four rows are distinguished by
// the sign of e and by whether v sits just above a binade boundary
// (f = b^(p−1) with e above the minimum exponent), where the gap to the
// predecessor is one b-th of the gap to the successor.
func newState(v fpformat.Value, base int, lowOK, highOK bool) *state {
	f := v.F
	e := v.E
	b := v.Fmt.Base
	bPows := bignat.Powers(b)
	boundary := v.IsBoundary() && v.E > v.Fmt.MinExp

	st := statePool.Get().(*state)
	st.lowOK, st.highOK = lowOK, highOK
	st.base = base
	st.pows = bignat.Powers(base)
	st.ops = 0
	st.estimated, st.fixup = false, false
	st.tr = nil
	// m⁺ and m⁻ are copied out of the power cache (never shared) because
	// the digit loop multiplies them in place; the copies land in the
	// pooled buffers.
	switch {
	case e >= 0 && !boundary:
		// r = f·bᵉ·2, s = 2, m⁺ = m⁻ = bᵉ
		be := bPows.Pow(uint(e))
		st.r = bignat.MulWordInPlace(bignat.MulInto(st.r, f, be), 2)
		st.s = append(st.s[:0], 2)
		st.mp = bignat.CopyInto(st.mp, be)
		st.mm = bignat.CopyInto(st.mm, be)
	case e >= 0 && boundary:
		// r = f·bᵉ⁺¹·2, s = b·2, m⁺ = bᵉ⁺¹, m⁻ = bᵉ
		be := bPows.Pow(uint(e))
		be1 := bPows.Pow(uint(e) + 1)
		st.r = bignat.MulWordInPlace(bignat.MulInto(st.r, f, be1), 2)
		st.s = append(st.s[:0], bignat.Word(2*b))
		st.mp = bignat.CopyInto(st.mp, be1)
		st.mm = bignat.CopyInto(st.mm, be)
	case !boundary:
		// e < 0: r = f·2, s = b⁻ᵉ·2, m⁺ = m⁻ = 1
		st.r = bignat.MulWordInPlace(bignat.CopyInto(st.r, f), 2)
		st.s = bignat.MulWordInPlace(bignat.CopyInto(st.s, bPows.Pow(uint(-e))), 2)
		st.mp = append(st.mp[:0], 1)
		st.mm = append(st.mm[:0], 1)
	default:
		// e < 0 at a boundary: r = f·b·2, s = b¹⁻ᵉ·2, m⁺ = b, m⁻ = 1
		st.r = bignat.MulWordInPlace(bignat.CopyInto(st.r, f), bignat.Word(2*b))
		st.s = bignat.MulWordInPlace(bignat.CopyInto(st.s, bPows.Pow(uint(1-e))), 2)
		st.mp = append(st.mp[:0], bignat.Word(b))
		st.mm = append(st.mm[:0], 1)
	}
	return st
}

// table1Case reports which row of the paper's Table 1 initializes the
// state for v, mirroring the branch structure of newState: 1 (e ≥ 0),
// 2 (e ≥ 0 at a binade boundary), 3 (e < 0), 4 (e < 0 at a boundary).
func table1Case(v fpformat.Value) int {
	boundary := v.IsBoundary() && v.E > v.Fmt.MinExp
	switch {
	case v.E >= 0 && !boundary:
		return 1
	case v.E >= 0:
		return 2
	case !boundary:
		return 3
	}
	return 4
}

// tooLow reports whether the current scale underestimates k: the high
// endpoint v + m⁺/s reaches or exceeds 1 (i.e. Bᵏ at the current scale).
// When the high endpoint is an admissible output (highOK) the comparison is
// inclusive, matching "k is the smallest integer such that high < Bᵏ".
func (st *state) tooLow() bool {
	st.ops += 2 // add + compare
	st.hn = bignat.AddInto(st.hn, st.r, st.mp)
	if st.highOK {
		return bignat.Cmp(st.hn, st.s) >= 0
	}
	return bignat.Cmp(st.hn, st.s) > 0
}

// tooHigh reports whether the current scale overestimates k: even after
// one more digit position the high endpoint stays below 1/B.
func (st *state) tooHigh() bool {
	st.ops += 3 // add + multiply + compare
	st.hn = bignat.AddInto(st.hn, st.r, st.mp)
	st.hn = bignat.MulWordInPlace(st.hn, bignat.Word(st.base))
	if st.highOK {
		return bignat.Cmp(st.hn, st.s) < 0
	}
	return bignat.Cmp(st.hn, st.s) <= 0
}

// scaleByPow multiplies the state for a scale estimate est: a non-negative
// est multiplies the denominator by B^est, a negative one multiplies the
// numerators by B^(−est) (step 3 of the Section 3.1 procedure).  Products
// ping-pong through the t1 scratch so the pooled buffers are reused.
func (st *state) scaleByPow(est int) {
	if est == 0 {
		return // B^0 = 1: multiplying through would only copy
	}
	st.ops++ // one multiplication by a (cached) power
	if est > 0 {
		st.s, st.t1 = bignat.MulInto(st.t1, st.s, st.pows.Pow(uint(est))), st.s
		return
	}
	st.ops += 2 // two more multiplications on the numerator side
	scale := st.pows.Pow(uint(-est))
	st.r, st.t1 = bignat.MulInto(st.t1, st.r, scale), st.r
	st.mp, st.t1 = bignat.MulInto(st.t1, st.mp, scale), st.mp
	st.mm, st.t1 = bignat.MulInto(st.t1, st.mm, scale), st.mm
}

// stepMul advances the numerators one digit position: r, m⁺, m⁻ ×= B,
// mutating in place (the state owns these values exclusively).
func (st *state) stepMul() {
	st.ops += 3
	w := bignat.Word(st.base)
	st.r = bignat.MulWordInPlace(st.r, w)
	st.mp = bignat.MulWordInPlace(st.mp, w)
	st.mm = bignat.MulWordInPlace(st.mm, w)
}
