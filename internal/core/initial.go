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
	// rec is the conversion's execution record, written unconditionally
	// as each step runs: init its Table 1 row, scaling the estimate and
	// final k, the digit loop its iterations, termination and rounding,
	// and every high-precision operation rec.Ops (the Table 2 metric).
	// A finished conversion adds it to the Trace* counters (count), and
	// a traced entry point copies it to the caller.
	rec trace.Conversion
}

var statePool = sync.Pool{New: func() any { return new(state) }}

// release returns st to the pool.  The limb buffers stay attached so the
// next conversion starts with warmed capacity.
func (st *state) release() {
	st.pows = nil
	statePool.Put(st)
}

// newState takes a state from the pool and initializes it for v (init).
func newState(v fpformat.Value, base int, lowOK, highOK bool) *state {
	st := statePool.Get().(*state)
	st.init(v, base, lowOK, highOK)
	return st
}

// init sets r, s, m⁺, and m⁻ from the mantissa and exponent of v
// according to Table 1 of the paper, and starts a fresh record with the
// row it takes.  The four rows are distinguished by the sign of e and by
// whether v sits just above a binade boundary (f = b^(p−1) with e above
// the minimum exponent), where the gap to the predecessor is one b-th of
// the gap to the successor.
func (st *state) init(v fpformat.Value, base int, lowOK, highOK bool) {
	f := v.F
	e := v.E
	b := v.Fmt.Base
	bPows := bignat.Powers(b)
	boundary := v.IsBoundary() && v.E > v.Fmt.MinExp

	st.lowOK, st.highOK = lowOK, highOK
	st.base = base
	st.pows = bignat.Powers(base)
	st.rec = trace.Conversion{Base: base, LowOK: lowOK, HighOK: highOK}
	// m⁺ and m⁻ are copied out of the power cache (never shared) because
	// the digit loop multiplies them in place; the copies land in the
	// pooled buffers.
	switch {
	case e >= 0 && !boundary:
		// r = f·bᵉ·2, s = 2, m⁺ = m⁻ = bᵉ
		st.rec.Table1Case = 1
		be := bPows.Pow(uint(e))
		st.r = bignat.MulWordInPlace(bignat.MulInto(st.r, f, be), 2)
		st.s = append(st.s[:0], 2)
		st.mp = bignat.CopyInto(st.mp, be)
		st.mm = bignat.CopyInto(st.mm, be)
	case e >= 0 && boundary:
		// r = f·bᵉ⁺¹·2, s = b·2, m⁺ = bᵉ⁺¹, m⁻ = bᵉ
		st.rec.Table1Case = 2
		be := bPows.Pow(uint(e))
		be1 := bPows.Pow(uint(e) + 1)
		st.r = bignat.MulWordInPlace(bignat.MulInto(st.r, f, be1), 2)
		st.s = append(st.s[:0], bignat.Word(2*b))
		st.mp = bignat.CopyInto(st.mp, be1)
		st.mm = bignat.CopyInto(st.mm, be)
	case !boundary:
		// e < 0: r = f·2, s = b⁻ᵉ·2, m⁺ = m⁻ = 1
		st.rec.Table1Case = 3
		st.r = bignat.MulWordInPlace(bignat.CopyInto(st.r, f), 2)
		st.s = bignat.MulWordInPlace(bignat.CopyInto(st.s, bPows.Pow(uint(-e))), 2)
		st.mp = append(st.mp[:0], 1)
		st.mm = append(st.mm[:0], 1)
	default:
		// e < 0 at a boundary: r = f·b·2, s = b¹⁻ᵉ·2, m⁺ = b, m⁻ = 1
		st.rec.Table1Case = 4
		st.r = bignat.MulWordInPlace(bignat.CopyInto(st.r, f), bignat.Word(2*b))
		st.s = bignat.MulWordInPlace(bignat.CopyInto(st.s, bPows.Pow(uint(1-e))), 2)
		st.mp = append(st.mp[:0], bignat.Word(b))
		st.mm = append(st.mm[:0], 1)
	}
}

// tooLow reports whether the current scale underestimates k: the high
// endpoint v + m⁺/s reaches or exceeds 1 (i.e. Bᵏ at the current scale).
// When the high endpoint is an admissible output (highOK) the comparison is
// inclusive, matching "k is the smallest integer such that high < Bᵏ".
func (st *state) tooLow() bool {
	st.rec.Ops += 2 // add + compare
	st.hn = bignat.AddInto(st.hn, st.r, st.mp)
	if st.highOK {
		return bignat.Cmp(st.hn, st.s) >= 0
	}
	return bignat.Cmp(st.hn, st.s) > 0
}

// tooHigh reports whether the current scale overestimates k: even after
// one more digit position the high endpoint stays below 1/B.
func (st *state) tooHigh() bool {
	st.rec.Ops += 3 // add + multiply + compare
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
	st.rec.Ops++ // one multiplication by a (cached) power
	if est > 0 {
		st.s, st.t1 = bignat.MulInto(st.t1, st.s, st.pows.Pow(uint(est))), st.s
		return
	}
	st.rec.Ops += 2 // two more multiplications on the numerator side
	scale := st.pows.Pow(uint(-est))
	st.r, st.t1 = bignat.MulInto(st.t1, st.r, scale), st.r
	st.mp, st.t1 = bignat.MulInto(st.t1, st.mp, scale), st.mp
	st.mm, st.t1 = bignat.MulInto(st.t1, st.mm, scale), st.mm
}

// stepMul advances the numerators one digit position: r, m⁺, m⁻ ×= B,
// mutating in place (the state owns these values exclusively).
func (st *state) stepMul() {
	st.rec.Ops += 3
	w := bignat.Word(st.base)
	st.r = bignat.MulWordInPlace(st.r, w)
	st.mp = bignat.MulWordInPlace(st.mp, w)
	st.mm = bignat.MulWordInPlace(st.mm, w)
}
