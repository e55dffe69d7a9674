package bignat

import "math/bits"

// DivModWord returns the quotient and remainder of x / w.
// It panics if w == 0.
func DivModWord(x Nat, w Word) (q Nat, r Word) {
	if w == 0 {
		panic("bignat: division by zero")
	}
	if len(x) == 0 {
		return nil, 0
	}
	q = make(Nat, len(x))
	var rem uint
	for i := len(x) - 1; i >= 0; i-- {
		var qi uint
		qi, rem = bits.Div(rem, uint(x[i]), uint(w))
		q[i] = Word(qi)
	}
	return norm(q), Word(rem)
}

// DivMod returns the quotient and remainder of x / y using Knuth's
// Algorithm D (TAOCP vol. 2, 4.3.1).  It panics if y == 0.
func DivMod(x, y Nat) (q, r Nat) {
	switch {
	case len(y) == 0:
		panic("bignat: division by zero")
	case len(y) == 1:
		q, rw := DivModWord(x, y[0])
		return q, FromUint64(uint64(rw))
	case Cmp(x, y) < 0:
		return nil, x.Clone()
	}

	n := len(y)
	m := len(x) - n

	// D1: normalize so that the divisor's top bit is set, which keeps the
	// quotient-digit estimate within one of the true digit.  One buffer
	// holds the shifted dividend un (len(x)+1 limbs, which becomes the
	// remainder) and the shifted divisor vn.
	shift := uint(bits.LeadingZeros(uint(y[n-1])))
	buf := make(Nat, len(x)+1+n)
	un, vn := buf[:len(x)+1], buf[len(x)+1:]
	shlVU(vn, y, shift)
	un[len(x)] = shlVU(un[:len(x)], x, shift)

	q = make(Nat, m+1)
	vTop := uint(vn[n-1])
	vNext := uint(vn[n-2])

	for j := m; j >= 0; j-- {
		// D3: estimate q̂ = (un[j+n]·B + un[j+n-1]) / vn[n-1], then refine
		// until q̂·vn[n-2] <= r̂·B + un[j+n-2].
		var qhat, rhat uint
		if uint(un[j+n]) == vTop {
			qhat = ^uint(0) // B-1
			rhat = uint(un[j+n-1]) + vTop
			// If rhat overflowed past B the test below is vacuously
			// satisfied, which the overflow check handles.
			if rhat < vTop {
				goto haveQhat
			}
		} else {
			qhat, rhat = bits.Div(uint(un[j+n]), uint(un[j+n-1]), vTop)
		}
		for {
			hi, lo := bits.Mul(qhat, vNext)
			if hi < rhat || (hi == rhat && lo <= uint(un[j+n-2])) {
				break
			}
			qhat--
			rhat += vTop
			if rhat < vTop { // rhat >= B: test can no longer fail
				break
			}
		}
	haveQhat:

		// D4: multiply and subtract: un[j..j+n] -= qhat * vn.
		var borrow Word
		var mulCarry uint
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul(qhat, uint(vn[i]))
			lo, c := bits.Add(lo, mulCarry, 0)
			mulCarry = hi + c
			un[j+i], borrow = subWW(un[j+i], Word(lo), borrow)
		}
		un[j+n], borrow = subWW(un[j+n], Word(mulCarry), borrow)

		// D5/D6: the estimate was one too large (probability ~2/B): add the
		// divisor back and decrement the quotient digit.
		if borrow != 0 {
			qhat--
			var carry Word
			for i := 0; i < n; i++ {
				un[j+i], carry = addWW(un[j+i], vn[i], carry)
			}
			un[j+n] += carry
		}
		q[j] = Word(qhat)
	}

	// D8: denormalize the remainder, in place.
	r = ShrInto(un[:n], un[:n], shift)
	return norm(q), r
}

// Div returns x / y, discarding the remainder.
func Div(x, y Nat) Nat {
	q, _ := DivMod(x, y)
	return q
}

// Mod returns x mod y.
func Mod(x, y Nat) Nat {
	_, r := DivMod(x, y)
	return r
}

// DivModSmallQuotient returns (q, r) for x / y under the caller's guarantee
// that the quotient is small (in the digit-generation loop of the printing
// algorithm the quotient is a base-B digit, B <= 36).  It estimates the
// quotient from the top word-width bits of both operands and corrects by at
// most a few single subtractions, replacing the full Algorithm D
// bookkeeping with one MulWord and one Sub in the common case.  It panics
// if the quotient does not fit in a Word.
func DivModSmallQuotient(x, y Nat) (q Word, r Nat) {
	if len(y) == 0 {
		panic("bignat: division by zero")
	}
	if Cmp(x, y) < 0 {
		return 0, x.Clone()
	}
	ex := x.BitLen()
	if ex-y.BitLen() >= wordBits-1 {
		panic("bignat: DivModSmallQuotient quotient does not fit in a Word")
	}
	// Align both operands to the same absolute bit position ex and compare
	// their top words.  xt/yt are floor(x / 2^(ex-W)) and floor(y / 2^(ex-W)),
	// so xt/(yt+1) <= q <= xt/yt + 1: the estimate is off by at most ~1 in
	// each direction for the small quotients we care about.
	xt := topBitsAt(x, ex)
	yt := topBitsAt(y, ex)
	est := xt / yt
	if est == 0 {
		est = 1
	}
	t := MulWord(y, Word(est))
	for Cmp(t, x) > 0 {
		est--
		t = Sub(t, y)
	}
	r = Sub(x, t)
	for Cmp(r, y) >= 0 {
		est++
		r = Sub(r, y)
	}
	return Word(est), r
}

// topBitsAt returns the word-width bits of n that end at absolute bit
// position pos, i.e. floor(n / 2^(pos-wordBits)), assuming pos >= n.BitLen()
// and pos >= 1.  When pos < wordBits the value is shifted up so all callers
// compare at the same scale.
func topBitsAt(n Nat, pos int) uint {
	if pos <= wordBits {
		var v uint
		if len(n) > 0 {
			v = uint(n[0])
		}
		if len(n) > 1 {
			panic("bignat: topBitsAt position below operand length")
		}
		return v << (wordBits - pos)
	}
	shift := uint(pos - wordBits)
	limb, off := int(shift/wordBits), shift%wordBits
	var lo, hi uint
	if limb < len(n) {
		lo = uint(n[limb])
	}
	if limb+1 < len(n) {
		hi = uint(n[limb+1])
	}
	if off == 0 {
		return lo
	}
	return lo>>off | hi<<(wordBits-off)
}
