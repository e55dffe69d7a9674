// One-sided ("directed") shortest kernels: the Ryū machinery with one
// bound dropped from the interval acceptance test.
//
// The nearest kernel finds the shortest decimal in (vm, vp), the open
// range between the neighbor midpoints.  The directed printers need the
// shortest decimal in a *half*-gap instead: ShortestBelowInto confines
// the output to (v−m⁻, v] — the largest decimals not exceeding v that
// still identify it — and ShortestAboveInto to [v, v+m⁺).  Both reuse
// the scaling step unchanged (the same exact 64×128-bit floors of the
// value and one midpoint); only the digit-removal loop differs:
//
//   - Below: the candidate at every length is the plain truncation of
//     the scaled value, which lies in (lowermid, v] exactly when
//     floor(vr/10ʲ) > floor(vm/10ʲ).  Both sides of that test are exact
//     integer floors, so no trailing-zero bookkeeping is needed at all —
//     remove digits while the next truncation still clears the midpoint.
//   - Above: the candidate is the ceiling of the scaled value, valid
//     while it stays strictly below the upper midpoint.  Ceilings and
//     the strict bound both hinge on integrality, so this side tracks
//     whether the scaled value and midpoint are exact, with the nearest
//     kernel's divisibility windows: the ceiling is vr+1 unless the
//     scaled value is exactly the integer vr, and the largest admissible
//     integer is vp−1 when the scaled midpoint is exactly vp.
//
// Output is byte-identical to the exact core's FloorFormat/CeilFormat
// (the §3 loop with a one-sided exit): both sides produce the unique
// shortest admissible candidate, and at the shortest length that
// candidate is unique.  Each kernel has a binary64 and a binary32 entry
// point; the binary32 one runs the same code on the float32
// decomposition, as the nearest kernel does.  The entry points decline
// (ok == false) out-of-domain input, as the nearest kernel's do, and
// guard one provably empty case each (an empty candidate range).

package ryu

import "floatprint/internal/fastparse"

// ShortestBelowInto converts a positive finite v to the shortest decimal
// in its lower half-gap (v−m⁻, v], writing ASCII digits into buf (at
// least BufLen bytes) and returning the digit count and K with
// value = 0.d₁…dₙ × 10ᴷ.  ok is false when the input is out of domain
// (v <= 0, Inf, NaN, a short buffer).
func ShortestBelowInto(buf []byte, v float64) (n, k int, ok bool) {
	return below(buf, v, false)
}

// ShortestBelow32Into is ShortestBelowInto for a binary32 value: the
// shortest decimal in its lower half-gap among float32s (at most 9
// digits).
func ShortestBelow32Into(buf []byte, v float32) (n, k int, ok bool) {
	return below(buf, float64(v), true)
}

// below is the lower one-sided kernel on v, a binary64 value or, when
// f32 is set, a binary32 value widened to float64.
func below(buf []byte, v float64, f32 bool) (n, k int, ok bool) {
	if !inDomain(buf, v) {
		return 0, 0, false
	}
	mv, e2, mmShift := decomposeWidth(v, f32)

	// Scale the value and the lower midpoint to decimal, exactly as the
	// nearest kernel does: vr = floor(v·10^−e10), vm = floor(lowermid·10^−e10).
	var vr, vm uint64
	var e10 int
	if e2 >= 0 {
		q := log10Pow2(e2)
		if e2 > 3 {
			q--
		}
		e10 = q
		i := -e2 + q + pow5bits(q) + 126 + min(q, 1)
		mul := fastparse.Pow10(-q)
		vr = mulShift64(mv, mul, i)
		vm = mulShift64(mv-1-mmShift, mul, i)
	} else {
		q := log10Pow5(-e2)
		if -e2 > 1 {
			q--
		}
		e10 = q + e2
		i := -e2 - q
		j := q - pow5bits(i) + 128
		mul := fastparse.Pow10(i)
		vr = mulShift64(mv, mul, j)
		vm = mulShift64(mv-1-mmShift, mul, j)
	}

	// Remove digits while the shorter truncation still clears the lower
	// midpoint.  floor(vr/10) > floor(vm/10) is exactly "the truncation
	// of v at the next length is still > v−m⁻": the truncation equals
	// vr₁·10 (scaled), and an integer vr₁ exceeds the real midpoint iff
	// it exceeds the midpoint's floor vm₁.  No exactness flags needed —
	// the test is the same whether or not the midpoint is an integer.
	removed := 0
	for vr/10 > vm/10 {
		vr /= 10
		vm /= 10
		removed++
	}
	if vr <= vm {
		// The scaled half-gap (vm, vr] always contains an integer before
		// any removal (the gap spans at least one scaled quarter-ulp
		// unit, which is ≥ 1 in every q branch), so this is unreachable;
		// guarded so a broken invariant declines instead of printing.
		return 0, 0, false
	}
	// vr cannot end in 0 here: vr = 10a > vm with vm/10 == a would force
	// vm ≥ 10a = vr, so the loop above would have kept removing.
	n = writeDecimal(buf, vr)
	return n, e10 + removed + n, true
}

// ShortestAboveInto converts a positive finite v to the shortest decimal
// in its upper half-gap [v, v+m⁺), with the same contract as
// ShortestBelowInto.
func ShortestAboveInto(buf []byte, v float64) (n, k int, ok bool) {
	return above(buf, v, false)
}

// ShortestAbove32Into is ShortestAboveInto for a binary32 value.
func ShortestAbove32Into(buf []byte, v float32) (n, k int, ok bool) {
	return above(buf, float64(v), true)
}

// above is the upper one-sided kernel on v, a binary64 value or, when
// f32 is set, a binary32 value widened to float64.
func above(buf []byte, v float64, f32 bool) (n, k int, ok bool) {
	if !inDomain(buf, v) {
		return 0, 0, false
	}
	mv, e2, _ := decomposeWidth(v, f32)

	// Scale the value and the upper midpoint, tracking integrality: the
	// ceiling candidate needs to know whether the scaled value is exactly
	// vr, and the strict upper bound whether the scaled midpoint is
	// exactly vp.  The divisibility windows are the nearest kernel's.
	var vr, vp uint64
	var e10 int
	vrExact, vpExact := false, false
	if e2 >= 0 {
		q := log10Pow2(e2)
		if e2 > 3 {
			q--
		}
		e10 = q
		i := -e2 + q + pow5bits(q) + 126 + min(q, 1)
		mul := fastparse.Pow10(-q)
		vr = mulShift64(mv, mul, i)
		vp = mulShift64(mv+2, mul, i)
		if q <= 21 {
			// x·2^(e2−q)/5^q is an integer iff 5^q divides x (e2 ≥ q holds
			// for every e2 in this branch).
			vrExact = multipleOfPowerOf5(mv, q)
			vpExact = multipleOfPowerOf5(mv+2, q)
		}
	} else {
		q := log10Pow5(-e2)
		if -e2 > 1 {
			q--
		}
		e10 = q + e2
		i := -e2 - q
		j := q - pow5bits(i) + 128
		mul := fastparse.Pow10(i)
		vr = mulShift64(mv, mul, j)
		vp = mulShift64(mv+2, mul, j)
		// x·5^i/2^q is an integer iff 2^q divides x: mv = 4·m2 always has
		// two factors of two, mv+2 = 2(2·m2+1) exactly one.
		if q <= 1 {
			vrExact = true
			vpExact = true
		} else if q < 63 {
			vrExact = multipleOfPowerOf2(mv, q)
		}
	}

	// vpAdj is the largest integer strictly below the scaled upper
	// midpoint; dividing it by 10 per removed digit preserves that role
	// (floor((u−1)/10ʲ) is the largest integer below u/10ʲ for integer u,
	// and floor(u/10ʲ) is when u is not a multiple of 10ʲ — both are what
	// floor division of vpAdj computes).
	vpAdj := vp
	if vpExact {
		vpAdj--
	}
	ceil := vr
	if !vrExact {
		ceil++
	}
	if ceil > vpAdj {
		// Unreachable: the scaled half-gap [v, uppermid) spans at least
		// two quarter-ulp units, so it always contains an integer at full
		// length.  Guarded as in below.
		return 0, 0, false
	}
	removed := 0
	for {
		vr2 := vr / 10
		exact2 := vrExact && vr%10 == 0
		c2 := vr2
		if !exact2 {
			c2++
		}
		if c2 > vpAdj/10 {
			break
		}
		vr, vrExact = vr2, exact2
		vpAdj /= 10
		removed++
	}
	out := vr
	if !vrExact {
		out++
	}
	// out cannot end in 0: a ceiling ending in 0 would stay admissible
	// with one more digit removed (its value is unchanged by the
	// removal), contradicting the loop's maximality.  That includes the
	// carry cases (…999+1): the loop keeps removing until the trailing
	// zeros produced by the carry are gone.
	n = writeDecimal(buf, out)
	return n, e10 + removed + n, true
}

// writeDecimal renders out ≥ 1 as ASCII into buf and returns the digit
// count.  Same emission scheme as the nearest kernel: length known up
// front, digits land in final position two at a time via the pair table.
func writeDecimal(buf []byte, out uint64) int {
	n := decimalLen(out)
	i := n
	for out >= 100 {
		q := out / 100
		j := (out - q*100) * 2
		i -= 2
		buf[i] = digitPairs[j]
		buf[i+1] = digitPairs[j+1]
		out = q
	}
	if out >= 10 {
		j := out * 2
		buf[i-2] = digitPairs[j]
		buf[i-1] = digitPairs[j+1]
	} else {
		buf[i-1] = '0' + byte(out)
	}
	return n
}
