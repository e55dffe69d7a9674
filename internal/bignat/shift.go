package bignat

// Shl returns x << s.
func Shl(x Nat, s uint) Nat {
	if len(x) == 0 || s == 0 {
		return x.Clone()
	}
	limbs, off := int(s/wordBits), s%wordBits
	z := make(Nat, len(x)+limbs+1)
	z[limbs+len(x)] = shlVU(z[limbs:limbs+len(x)], x, off)
	return norm(z)
}

// Shr returns x >> s.
func Shr(x Nat, s uint) Nat {
	return ShrInto(nil, x, s)
}

// shlVU sets z = x << s for s < wordBits and returns the bits shifted
// out of the top.  len(z) must equal len(x).
func shlVU(z, x Nat, s uint) (carry Word) {
	if s == 0 {
		copy(z, x)
		return 0
	}
	for i, xi := range x {
		z[i] = xi<<s | carry
		carry = xi >> (wordBits - s)
	}
	return carry
}
