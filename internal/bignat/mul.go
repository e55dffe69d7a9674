package bignat

import "math/bits"

// karatsubaThreshold is the operand length (in limbs) above which Mul
// switches from schoolbook multiplication to Karatsuba's algorithm.  The
// printing algorithm's operands are small (a double's scaled numerator is at
// most ~40 limbs), so schoolbook usually wins; the threshold mainly matters
// for the bignat ablation benchmark and for users with huge exponent powers.
var karatsubaThreshold = 24

// MulWord returns x * w.
func MulWord(x Nat, w Word) Nat {
	if len(x) == 0 || w == 0 {
		return nil
	}
	if w == 1 {
		return x.Clone()
	}
	z := make(Nat, len(x)+1)
	z[len(x)] = mulAddVWW(z[:len(x)], x, w, 0)
	return norm(z)
}

// mulAddVWW computes z = x*w + a, storing the low len(x) words into z and
// returning the carry word.  z and x must have equal length; z may alias x.
func mulAddVWW(z, x Nat, w, a Word) (carry Word) {
	carry = a
	for i, xi := range x {
		hi, lo := bits.Mul(uint(xi), uint(w))
		lo, c := bits.Add(lo, uint(carry), 0)
		z[i] = Word(lo)
		carry = Word(hi + c)
	}
	return carry
}

// addMulVVW computes z += x*w in place and returns the final carry.
// len(z) must be >= len(x).
func addMulVVW(z, x Nat, w Word) (carry Word) {
	for i, xi := range x {
		hi, lo := bits.Mul(uint(xi), uint(w))
		lo, c1 := bits.Add(lo, uint(z[i]), 0)
		lo, c2 := bits.Add(lo, uint(carry), 0)
		z[i] = Word(lo)
		carry = Word(hi + c1 + c2)
	}
	return carry
}

// Mul returns x * y.
func Mul(x, y Nat) Nat {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	if len(x) == 1 {
		return MulWord(y, x[0])
	}
	if len(y) == 1 {
		return MulWord(x, y[0])
	}
	if len(x) >= karatsubaThreshold && len(y) >= karatsubaThreshold {
		return karatsuba(x, y)
	}
	return mulSchoolbook(x, y)
}

// mulSchoolbook is the O(n*m) textbook multiplication.
func mulSchoolbook(x, y Nat) Nat {
	z := make(Nat, len(x)+len(y))
	for j, yj := range y {
		if yj == 0 {
			continue
		}
		z[j+len(x)] += addMulVVW(z[j:j+len(x)], x, yj)
	}
	return norm(z)
}

// karatsuba multiplies x and y by splitting each at half the length of the
// shorter operand: x = x1*2^(m*W) + x0, y likewise, and
// x*y = x1*y1*2^(2mW) + ((x0+x1)*(y0+y1) - x1*y1 - x0*y0)*2^(mW) + x0*y0,
// reducing one multiplication to three of half size.
func karatsuba(x, y Nat) Nat {
	n := min(len(x), len(y))
	m := n / 2

	x0, x1 := norm(x[:m].Clone()), x[m:].Clone()
	y0, y1 := norm(y[:m].Clone()), y[m:].Clone()

	z0 := Mul(x0, y0)
	z2 := Mul(x1, y1)
	mid := Mul(Add(x0, x1), Add(y0, y1))
	mid = Sub(Sub(mid, z0), z2)

	z := Add(z0, shlLimbs(mid, m))
	return Add(z, shlLimbs(z2, 2*m))
}

// shlLimbs returns x shifted left by n whole limbs (x * 2^(n*wordBits)).
func shlLimbs(x Nat, n int) Nat {
	if len(x) == 0 || n == 0 {
		return x
	}
	z := make(Nat, len(x)+n)
	copy(z[n:], x)
	return z
}

// Sqr returns x * x.  It currently delegates to Mul; the symmetric fast
// path is not needed by the printing algorithms but the entry point keeps
// call sites readable.
func Sqr(x Nat) Nat { return Mul(x, x) }
