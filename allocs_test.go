package floatprint

import (
	"math"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
)

// TestExactPathAllocBudgets pins what the exact paths allocate now that
// every power they need comes from the shared tables and the reader folds
// its digits in place: an exact shortest conversion allocates only its
// digit slice, an exact base-10 parse at most ten times, and a
// fixed-position print at most six.  Before, IsBoundary rebuilt b^(p−1)
// on every conversion (11 allocations for a free-format print) and the
// reader rebuilt four powers and one integer per digit (~80 per parse).
func TestExactPathAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, f := range []float64{0.3, 1, 1e23, 5e-324, math.MaxFloat64, 0x1p-1022} {
		v := fpformat.DecodeFloat64(f)
		n := testing.AllocsPerRun(100, func() {
			_, _ = core.FreeFormat(v, 10, core.ScalingEstimate, core.ReaderNearestEven)
		})
		if n != 1 {
			t.Errorf("core.FreeFormat(%v): %v allocations, want 1", f, n)
		}
	}
	for _, s := range []string{
		"0.3", "1e23", "9007199254740993", "4.9e-324", "1.7976931348623157e308",
		"9007199254740991.75", "0.1000000000000000055511151231257827021181583404541015625",
	} {
		n := testing.AllocsPerRun(100, func() {
			_, _ = reader.Parse(s, 10, fpformat.Binary64, reader.NearestEven)
		})
		if n > 10 {
			t.Errorf("reader.Parse(%q): %v allocations, want at most 10", s, n)
		}
	}
	for _, c := range []struct {
		v   float64
		pos int
	}{{123.456, -2}, {0.3, -20}, {1e23, 0}, {1, -6}, {5e-324, -330}} {
		n := testing.AllocsPerRun(100, func() { _, _ = FixedPositionDigits(c.v, c.pos, nil) })
		if n > 6 {
			t.Errorf("FixedPositionDigits(%v, %d): %v allocations, want at most 6", c.v, c.pos, n)
		}
	}
}

// TestParseAllocs pins that a base-10 parse the fast path certifies
// allocates nothing, under every reader mode in both widths, specials
// included: the special-name check folds case in place, and the scanner
// reads the string without copying it (the 41-byte literal is past the
// compiler's 32-byte stack buffer for a copied conversion).
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	for _, mode := range []ReaderRounding{
		ReaderNearestEven, ReaderNearestAway, ReaderNearestTowardZero, ReaderTowardNegInf, ReaderTowardPosInf,
	} {
		o := &Options{Reader: mode}
		for _, s := range []string{
			"0.3", "1.5E10", "NaN", "-Infinity", "0.000000000000000000000000000000000012345",
			// Subnormal results, in binary64 and (the last) in binary32,
			// whose shortest string of 2⁻¹²⁶ reads below it toward −∞.
			"5e-324", "-5e-324", "1e-310", "1.1754943508222875e-38",
		} {
			if n := testing.AllocsPerRun(100, func() { _, _ = Parse(s, o) }); n != 0 {
				t.Errorf("Parse(%q, %v): %v allocations, want 0", s, mode, n)
			}
			if n := testing.AllocsPerRun(100, func() { _, _ = Parse32(s, o) }); n != 0 {
				t.Errorf("Parse32(%q, %v): %v allocations, want 0", s, mode, n)
			}
		}
	}
}
