package fpformat

import "floatprint/internal/bignat"

// Next returns the floating-point successor v⁺ of a finite, non-negative
// value, following Section 2.1 of the paper: for most v, v⁺ = (f+1) × b^e;
// when f+1 == b^p the mantissa wraps to b^(p-1) and the exponent rises; at
// the maximum exponent the successor is +Inf.  Next(+0) is the smallest
// positive denormal.
func Next(v Value) Value {
	f := v.Fmt
	switch v.Class {
	case Inf, NaN:
		return v
	case Zero:
		return Value{Fmt: f, Class: Denormal, F: bignat.Nat{1}, E: f.MinExp}
	}
	nf := bignat.AddWord(v.F, 1)
	e := v.E
	if bignat.Cmp(nf, f.mantissaLimit()) >= 0 { // nf == b^p
		if e == f.MaxExp {
			return Value{Fmt: f, Class: Inf, Neg: v.Neg}
		}
		nf = f.minNormalMantissa().Clone()
		e++
	}
	class := Normal
	if e == f.MinExp && bignat.Cmp(nf, f.minNormalMantissa()) < 0 {
		class = Denormal
	}
	return Value{Fmt: f, Class: class, Neg: v.Neg, F: nf, E: e}
}

// Prev returns the floating-point predecessor v⁻ of a finite, positive
// value: for most v, v⁻ = (f−1) × b^e; when f == b^(p-1) and e is above the
// minimum exponent the gap narrows and v⁻ = (b^p − 1) × b^(e−1).
// Prev of the smallest positive denormal is +0.
func Prev(v Value) Value {
	f := v.Fmt
	switch v.Class {
	case Inf, NaN, Zero:
		return v
	}
	if v.IsBoundary() && v.E > f.MinExp {
		return Value{Fmt: f, Class: Normal, Neg: v.Neg, F: f.maxMantissa(), E: v.E - 1}
	}
	nf := bignat.SubWord(v.F, 1)
	if nf.IsZero() {
		return Value{Fmt: f, Class: Zero, Neg: v.Neg}
	}
	class := Normal
	if bignat.Cmp(nf, f.minNormalMantissa()) < 0 {
		class = Denormal
	}
	return Value{Fmt: f, Class: class, Neg: v.Neg, F: nf, E: v.E}
}
