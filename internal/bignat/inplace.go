package bignat

import "math/bits"

// In-place variants of the hot-loop operations.
//
// The digit-generation loop of the printing algorithm performs a handful
// of operations per digit (r ×= B, m± ×= B, r divmod s); with the
// functional API each allocates.  The *InPlace functions below mutate
// their first operand instead, under an explicit ownership contract: the
// caller must hold the only reference to that Nat (in particular it must
// not come from a PowCache).  They return the resulting Nat because the
// backing array may still need to grow by one limb.

// MulWordInPlace multiplies x by w in place and returns the result, which
// reuses x's storage when the product fits.
func MulWordInPlace(x Nat, w Word) Nat {
	if len(x) == 0 || w == 0 {
		return x[:0]
	}
	if w == 1 {
		return x
	}
	carry := mulAddVWW(x, x, w, 0)
	if carry != 0 {
		x = append(x, carry)
	}
	return x
}

// MulAddWordInPlace computes x*w + a in place and returns the result,
// which reuses x's storage when it fits.
func MulAddWordInPlace(x Nat, w, a Word) Nat {
	if len(x) == 0 {
		if a == 0 {
			return x[:0]
		}
		return append(x[:0], a)
	}
	carry := mulAddVWW(x, x, w, a)
	if carry != 0 {
		x = append(x, carry)
	}
	return x
}

// AddWordInPlace adds w to x in place.
func AddWordInPlace(x Nat, w Word) Nat {
	carry := w
	for i := range x {
		if carry == 0 {
			return x
		}
		x[i], carry = addWW(x[i], carry, 0)
	}
	if carry != 0 {
		x = append(x, carry)
	}
	return x
}

// SubInPlace computes x -= y in place (x must be >= y) and returns the
// normalized result.
func SubInPlace(x, y Nat) Nat {
	if len(x) < len(y) {
		panic("bignat: SubInPlace underflow")
	}
	var borrow Word
	i := 0
	for ; i < len(y); i++ {
		x[i], borrow = subWW(x[i], y[i], borrow)
	}
	for ; i < len(x) && borrow != 0; i++ {
		x[i], borrow = subWW(x[i], 0, borrow)
	}
	if borrow != 0 {
		panic("bignat: SubInPlace underflow")
	}
	return norm(x)
}

// AddInto computes x + y into dst's storage (growing it as needed) and
// returns the result.  dst must not alias y; dst may alias x.
func AddInto(dst, x, y Nat) Nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	n := len(x) + 1
	if cap(dst) < n {
		dst = make(Nat, n)
	} else {
		dst = dst[:n]
	}
	var carry Word
	i := 0
	for ; i < len(y); i++ {
		dst[i], carry = addWW(x[i], y[i], carry)
	}
	for ; i < len(x); i++ {
		dst[i], carry = addWW(x[i], 0, carry)
	}
	dst[len(x)] = carry
	return norm(dst)
}

// MulInto computes x * y into dst's storage (growing it as needed) and
// returns the normalized result.  dst must alias neither x nor y.  Operands
// at or above the Karatsuba threshold fall back to the allocating Mul —
// the printing hot loop never reaches that size, and correctness there
// matters more than buffer reuse.
func MulInto(dst, x, y Nat) Nat {
	if len(x) == 0 || len(y) == 0 {
		return dst[:0]
	}
	if len(y) > len(x) {
		x, y = y, x
	}
	if len(y) >= karatsubaThreshold {
		return Mul(x, y)
	}
	n := len(x) + len(y)
	if cap(dst) < n {
		dst = make(Nat, n)
	} else {
		dst = dst[:n]
	}
	if len(y) == 1 {
		dst[len(x)] = mulAddVWW(dst[:len(x)], x, y[0], 0)
		return norm(dst)
	}
	for i := range dst {
		dst[i] = 0
	}
	for j, yj := range y {
		if yj == 0 {
			continue
		}
		dst[j+len(x)] += addMulVVW(dst[j:j+len(x)], x, yj)
	}
	return norm(dst)
}

// ShrInto computes x >> s into dst's storage (growing it as needed) and
// returns the result.  dst may be x itself.
func ShrInto(dst, x Nat, s uint) Nat {
	limbs, off := int(s/wordBits), s%wordBits
	if limbs >= len(x) {
		return dst[:0]
	}
	n := len(x) - limbs
	if cap(dst) < n {
		dst = make(Nat, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		// Reads run ahead of the write index, so an aliased x is
		// consumed before it is overwritten.
		w := x[limbs+i] >> off
		if off != 0 && limbs+i+1 < len(x) {
			w |= x[limbs+i+1] << (wordBits - off)
		}
		dst[i] = w
	}
	return norm(dst)
}

// CopyInto copies x into dst's storage (growing it as needed) and returns
// the result, which shares no limbs with x.
func CopyInto(dst, x Nat) Nat {
	return append(dst[:0], x...)
}

// subMulVW computes x -= y*w in place, returning the final borrow (nonzero
// when y*w > x, in which case x holds the two's-complement-style residue
// and the caller must add back).  len(x) must be >= len(y).
func subMulVW(x, y Nat, w Word) (borrow Word) {
	var mulCarry uint
	var subBorrow Word
	i := 0
	for ; i < len(y); i++ {
		hi, lo := bits.Mul(uint(y[i]), uint(w))
		lo, c := bits.Add(lo, mulCarry, 0)
		mulCarry = hi + c
		x[i], subBorrow = subWW(x[i], Word(lo), subBorrow)
	}
	for ; i < len(x); i++ {
		x[i], subBorrow = subWW(x[i], Word(mulCarry), subBorrow)
		mulCarry = 0
	}
	return subBorrow + Word(mulCarry)
}

// addVVInPlace computes x += y in place (len(x) >= len(y) required) and
// returns the final carry.
func addVVInPlace(x, y Nat) (carry Word) {
	i := 0
	for ; i < len(y); i++ {
		x[i], carry = addWW(x[i], y[i], carry)
	}
	for ; i < len(x) && carry != 0; i++ {
		x[i], carry = addWW(x[i], 0, carry)
	}
	return carry
}

// DivModSmallQuotientInPlace divides x by y under the small-quotient
// guarantee of DivModSmallQuotient, storing the remainder in x's storage
// (x is consumed) and returning the quotient word with the remainder.
func DivModSmallQuotientInPlace(x, y Nat) (q Word, r Nat) {
	if len(y) == 0 {
		panic("bignat: division by zero")
	}
	if Cmp(x, y) < 0 {
		return 0, x
	}
	ex := x.BitLen()
	if ex-y.BitLen() >= wordBits-1 {
		panic("bignat: DivModSmallQuotientInPlace quotient does not fit in a Word")
	}
	est := topBitsAt(x, ex) / topBitsAt(y, ex)
	if est == 0 {
		est = 1
	}
	// x -= est*y; an overestimate (by at most a couple of units) shows up
	// as outstanding borrow, repaid by adding y back — each add-back whose
	// carry reaches the top cancels one unit of borrow.
	work := x
	borrow := subMulVW(work, y, Word(est))
	for borrow != 0 {
		est--
		borrow -= addVVInPlace(work, y)
	}
	r = norm(work)
	for Cmp(r, y) >= 0 {
		r = SubInPlace(r, y)
		est++
	}
	return Word(est), r
}
