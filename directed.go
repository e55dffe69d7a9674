package floatprint

// Directed (one-sided) shortest conversion: the printing half of interval
// I/O.  Where ShortestDigits emits the shortest string anywhere inside v's
// rounding range, ShortestBelowDigits confines the output to the lower
// half-gap (v−m⁻, v] and ShortestAboveDigits to the upper half-gap
// [v, v+m⁺).  Three properties follow, and the interval package is built
// on all of them:
//
//   - One-sidedness: the Below output never exceeds v and the Above output
//     is never less than v, so a printed [Below(lo), Above(hi)] interval
//     always encloses [lo, hi].
//   - Identification: the output is strictly nearer v than either
//     neighbor's midpoint, so every round-to-nearest reader recovers
//     exactly v; a directed reader recovers v or the neighbor on the
//     bound's own outward side, never the wrong side.
//   - Tightness: the output is within half an ulp-gap of v, so shifting
//     its last digit one unit toward v overshoots to the far side — the
//     printed bound cannot be shrunk without losing enclosure.

// ShortestBelowDigits converts v to the shortest digit string whose exact
// value is ≤ v while still identifying v (it lies in v's lower half-gap).
// Specials pass through: ±0, ±Inf, and NaN format as in ShortestDigits —
// zero and the infinities are their own exact bounds, and NaN has no
// ordered bound, which the interval layer rejects.  opts.Reader is
// ignored: the bound is what a toward-positive reader needs printed.
func ShortestBelowDigits(v float64, opts *Options) (Digits, error) {
	return directedDigits(v, opts, ReaderTowardPosInf)
}

// ShortestAboveDigits converts v to the shortest digit string whose exact
// value is ≥ v while still identifying v (it lies in v's upper half-gap).
// opts.Reader is ignored: the bound is what a toward-negative reader
// needs printed.
func ShortestAboveDigits(v float64, opts *Options) (Digits, error) {
	return directedDigits(v, opts, ReaderTowardNegInf)
}

// ShortestBelow renders ShortestBelowDigits under default options.
func ShortestBelow(v float64) string {
	d, err := ShortestBelowDigits(v, nil)
	if err != nil {
		panic("floatprint: " + err.Error()) // unreachable with default options
	}
	return d.String()
}

// ShortestAbove renders ShortestAboveDigits under default options.
func ShortestAbove(v float64) string {
	d, err := ShortestAboveDigits(v, nil)
	if err != nil {
		panic("floatprint: " + err.Error())
	}
	return d.String()
}

// directedDigits is ShortestDigits under opts with the reader replaced
// by r, the directed mode whose printed form is the wanted bound, so the
// one-sided conversions share the nearest ones' dispatch: the one-sided
// Ryū kernels for a base-10 BackendAuto request, the exact core's floor
// and ceiling loops otherwise.
func directedDigits(v float64, opts *Options, r ReaderRounding) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	o.Reader = r
	return shortestValueTraced(v, false, o, nil)
}
