package floatprint

import (
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/ryu"
	"floatprint/internal/stats"
)

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
// ordered bound, which the interval layer rejects.
func ShortestBelowDigits(v float64, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	d, _, err := directedValue(fpformat.DecodeFloat64(v), o, false)
	return d, err
}

// ShortestAboveDigits converts v to the shortest digit string whose exact
// value is ≥ v while still identifying v (it lies in v's upper half-gap).
func ShortestAboveDigits(v float64, opts *Options) (Digits, error) {
	o, err := opts.norm()
	if err != nil {
		return Digits{}, err
	}
	d, _, err := directedValue(fpformat.DecodeFloat64(v), o, true)
	return d, err
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

// directedValue is the directed analog of shortestValueTraced: specials
// first, then the one-sided Ryū kernels when the request shape admits
// them, then the one-sided exact core on the magnitude.  above selects
// the bound in *value* order; for a negative value the magnitude rounding
// flips (the largest decimal ≤ v is the negation of the smallest decimal
// ≥ |v|).
// fast reports whether a one-sided kernel served the result (trace
// attribution); the kernels follow the decline-don't-error contract, so a
// decline falls through to the exact core and the output never depends on
// the path taken.
func directedValue(val fpformat.Value, o Options, above bool) (d Digits, fast bool, err error) {
	if d, done := specialDigits(val, o.Base); done {
		return d, false, nil
	}
	if directedFastpath(o, val) {
		if v, verr := abs(val).Float64(); verr == nil {
			var buf [ryu.BufLen]byte
			var n, k int
			var ok bool
			if above != val.Neg {
				n, k, ok = ryu.ShortestAboveInto(buf[:], v)
			} else {
				n, k, ok = ryu.ShortestBelowInto(buf[:], v)
			}
			if ok {
				stats.DirectedRyuHits.Inc()
				return kernelDigits(buf[:], n, k, val.Neg), true, nil
			}
			stats.DirectedRyuMisses.Inc()
		}
	}
	var res core.Result
	if above != val.Neg {
		res, err = core.CeilFormat(abs(val), o.Base, core.ScalingEstimate)
	} else {
		res, err = core.FloorFormat(abs(val), o.Base, core.ScalingEstimate)
	}
	if err != nil {
		return Digits{}, false, err
	}
	stats.ExactFree.Inc()
	return fromResult(res, val.Neg, o.Base), false, nil
}
