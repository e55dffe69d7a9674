package floatprint

import (
	"math"
	"strconv"
	"testing"

	"floatprint/internal/schryer"
)

// TestDirectedWrappersNeverError pins the "unreachable with default
// options" claim the ShortestBelow/ShortestAbove panic paths make: under
// nil options the digits entry points return a nil error for every value
// class — finite across the whole exponent range, denormals, the format
// extremes, both signs, and the specials — so the wrappers can never
// reach their panic.  CeilFormat/FloorFormat only fail on invalid
// base/scaling or non-finite input, and norm() plus the specials filter
// rule both out before the core runs; this test keeps that audit honest
// if either layer changes.
func TestDirectedWrappersNeverError(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 0.1, -0.3, 1.5, math.Pi, -math.E,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), // normal floor and below
		1e308, 1e-308, 5e-324, 1e23, 1 << 53, -(1<<53 - 1),
	}
	for _, v := range values {
		if _, err := ShortestBelowDigits(v, nil); err != nil {
			t.Errorf("ShortestBelowDigits(%x, nil) error: %v", math.Float64bits(v), err)
		}
		if _, err := ShortestAboveDigits(v, nil); err != nil {
			t.Errorf("ShortestAboveDigits(%x, nil) error: %v", math.Float64bits(v), err)
		}
		// The string wrappers must complete, not panic.
		_ = ShortestBelow(v)
		_ = ShortestAbove(v)
	}
}

// TestDirectedPrintFastMatchesExact is the root-level dispatch
// differential: the default (fast-eligible) options and the forced-exact
// backend must render byte-identical one-sided bounds, and the telemetry
// must attribute each run to the right path.
func TestDirectedPrintFastMatchesExact(t *testing.T) {
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	exact := &Options{Backend: BackendExact}
	n := 20000
	if testing.Short() {
		n = 2000
	}
	checked := 0
	for _, v := range schryer.CorpusN(n) {
		for _, w := range []float64{v, -v} {
			fb, err := ShortestBelowDigits(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			eb, err := ShortestBelowDigits(w, exact)
			if err != nil {
				t.Fatal(err)
			}
			if fb.String() != eb.String() {
				t.Fatalf("Below(%x): fast %q, exact %q", math.Float64bits(w), fb.String(), eb.String())
			}
			fa, err := ShortestAboveDigits(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			ea, err := ShortestAboveDigits(w, exact)
			if err != nil {
				t.Fatal(err)
			}
			if fa.String() != ea.String() {
				t.Fatalf("Above(%x): fast %q, exact %q", math.Float64bits(w), fa.String(), ea.String())
			}
			checked += 2
		}
	}
	d := Snapshot()
	if d.DirectedRyuHits != uint64(checked) {
		t.Errorf("DirectedRyuHits = %d, want %d (the kernels serve every fast-eligible call)", d.DirectedRyuHits, checked)
	}
	// The forced-exact twin runs never touch the directed fast counters.
	if got := d.ExactFree; got != uint64(checked) {
		t.Errorf("ExactFree = %d, want %d (one per forced-exact call)", got, checked)
	}
}

// TestDirectedDispatchGuards pins the static guards in front of the
// one-sided kernels: requests the base-10 decimal kernels cannot serve —
// other bases, the exact backend — must go to the exact core without so much as an attempted fast call
// (the kernels would produce well-formed garbage for base 16, so the
// guard must fire before, not inside, the kernel).
func TestDirectedDispatchGuards(t *testing.T) {
	guarded := []*Options{
		{Base: 16},
		{Base: 2},
		{Backend: BackendExact},
	}
	for _, o := range guarded {
		ResetStats()
		prev := SetStatsEnabled(true)
		for _, v := range []float64{0.3, math.Pi, 1e23, 5e-324} {
			if _, err := ShortestBelowDigits(v, o); err != nil {
				t.Fatalf("ShortestBelowDigits(%g, %+v): %v", v, *o, err)
			}
			if _, err := ShortestAboveDigits(v, o); err != nil {
				t.Fatalf("ShortestAboveDigits(%g, %+v): %v", v, *o, err)
			}
		}
		d := Snapshot()
		SetStatsEnabled(prev)
		if d.DirectedRyuHits != 0 || d.RyuHits != 0 {
			t.Errorf("options %+v reached a kernel: directed hits=%d, nearest hits=%d",
				*o, d.DirectedRyuHits, d.RyuHits)
		}
		if d.ExactFree != 8 {
			t.Errorf("options %+v: ExactFree = %d, want 8", *o, d.ExactFree)
		}
	}
	// And the complementary pin: eligible options do attempt the kernel.
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)
	for _, o := range []*Options{nil, {Backend: BackendAuto}} {
		if _, err := ShortestBelowDigits(0.3, o); err != nil {
			t.Fatal(err)
		}
	}
	if d := Snapshot(); d.DirectedRyuHits != 2 {
		t.Errorf("eligible options: DirectedRyuHits = %d, want 2", d.DirectedRyuHits)
	}
}

// TestShortestBelowAboveGoldens pins the directed printers on values
// whose one-sided forms are known by hand.
func TestShortestBelowAboveGoldens(t *testing.T) {
	cases := []struct {
		v            float64
		below, above string
	}{
		// float64(0.1) is above decimal 0.1: "0.1" itself is the lower
		// bound, the upper needs the full 17 digits.  float64(0.3) mirrors.
		{0.1, "0.1", "0.10000000000000001"},
		{0.3, "0.29999999999999998", "0.3"},
		// Exactly representable decimals are their own bounds.
		{0.5, "0.5", "0.5"},
		{1, "1", "1"},
		{-2.5, "-2.5", "-2.5"},
		// float64(1e23) sits exactly on the decimal 1e23 midpoint with its
		// upper neighbor, so "1e23" is in the closed upper gap but NOT the
		// half-open one: a nearest-away reader would send it to the
		// neighbor.  The directed printer must refuse the tie string.
		{1e23, "9.999999999999999e22", "9.9999999999999992e22"},
		// Format boundaries.
		{math.MaxFloat64, "1.7976931348623157e308", "1.7976931348623158e308"},
		{math.SmallestNonzeroFloat64, "4e-324", "5e-324"},
		// Specials are their own exact bounds.
		{0, "0", "0"},
		{math.Copysign(0, -1), "-0", "-0"},
		{math.Inf(1), "+Inf", "+Inf"},
		{math.Inf(-1), "-Inf", "-Inf"},
	}
	for _, c := range cases {
		if got := ShortestBelow(c.v); got != c.below {
			t.Errorf("ShortestBelow(%g) = %q, want %q", c.v, got, c.below)
		}
		if got := ShortestAbove(c.v); got != c.above {
			t.Errorf("ShortestAbove(%g) = %q, want %q", c.v, got, c.above)
		}
	}
	if got := ShortestBelow(math.NaN()); got != "NaN" {
		t.Errorf("ShortestBelow(NaN) = %q", got)
	}
}

// TestDirectedReaderOption pins the Options.Reader plumbing: a directed
// reader assumption routes the shortest conversion through the matching
// one-sided core (TowardNegInf readers need the upper-gap string to
// recover v; TowardPosInf readers the lower-gap string), on both the
// digits and append entry points.
func TestDirectedReaderOption(t *testing.T) {
	negOpts := &Options{Reader: ReaderTowardNegInf}
	posOpts := &Options{Reader: ReaderTowardPosInf}
	if got := string(AppendShortestWith(nil, 0.3, negOpts)); got != "0.3" {
		t.Errorf("AppendShortestWith(0.3, TowardNegInf) = %q, want %q", got, "0.3")
	}
	if got := string(AppendShortestWith(nil, 0.3, posOpts)); got != "0.29999999999999998" {
		t.Errorf("AppendShortestWith(0.3, TowardPosInf) = %q, want %q", got, "0.29999999999999998")
	}
	d, err := ShortestDigits(0.1, negOpts)
	if err != nil || d.String() != "0.10000000000000001" {
		t.Errorf("ShortestDigits(0.1, TowardNegInf) = %q, %v", d.String(), err)
	}
}

// TestDirectedRoundTrip checks the identification property across a
// corpus slice: the Below string parses back to exactly v under every
// nearest mode AND under a toward-+∞ reader (it lies strictly inside the
// lower half-gap, above the previous float); symmetrically for Above.
// Directed re-reads on the bound's own side may step one ulp outward —
// never inward, and never more than one.
func TestDirectedRoundTrip(t *testing.T) {
	n := schryer.CorpusSize
	if testing.Short() {
		n = 4000
	}
	nearest := []*Options{
		nil,
		{Reader: ReaderNearestAway},
		{Reader: ReaderNearestTowardZero},
	}
	up := &Options{Reader: ReaderTowardPosInf}
	down := &Options{Reader: ReaderTowardNegInf}
	for _, v := range schryer.CorpusN(n) {
		below, above := ShortestBelow(v), ShortestAbove(v)
		if f, err := strconv.ParseFloat(below, 64); err != nil || f != v {
			t.Fatalf("strconv(Below(%x) = %q) = %v, %v", v, below, f, err)
		}
		if f, err := strconv.ParseFloat(above, 64); err != nil || f != v {
			t.Fatalf("strconv(Above(%x) = %q) = %v, %v", v, above, f, err)
		}
		for _, o := range nearest {
			if f, err := Parse(below, o); err != nil || f != v {
				t.Fatalf("Parse(Below(%x) = %q, %v) = %v, %v", v, below, o, f, err)
			}
			if f, err := Parse(above, o); err != nil || f != v {
				t.Fatalf("Parse(Above(%x) = %q, %v) = %v, %v", v, above, o, f, err)
			}
		}
		// The inward-pointing directed re-reads recover v exactly.
		if f, err := Parse(below, up); err != nil || f != v {
			t.Fatalf("Parse(Below(%x), up) = %v, %v; want exact", v, f, err)
		}
		if f, err := Parse(above, down); err != nil || f != v {
			t.Fatalf("Parse(Above(%x), down) = %v, %v; want exact", v, f, err)
		}
	}
}

// TestDirectedNegationMirror checks Below(-v) == "-" + Above(v): the
// one-sided bounds commute with negation.
func TestDirectedNegationMirror(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, v := range schryer.CorpusN(n) {
		if got, want := ShortestBelow(-v), "-"+ShortestAbove(v); got != want {
			t.Fatalf("Below(-%x) = %q, want %q", v, got, want)
		}
		if got, want := ShortestAbove(-v), "-"+ShortestBelow(v); got != want {
			t.Fatalf("Above(-%x) = %q, want %q", v, got, want)
		}
	}
}

// TestDirectedLengthBounds: a one-sided bound is never shorter than the
// unconstrained shortest form (its half-gap is a subset of the full
// rounding range) and never needs more than 18 significant digits (the
// half-gap is half the width of the full range, for which 17 digits
// always suffice — the same density argument gives 18 for half the
// width).  It CAN be more than one digit longer than the shortest form:
// the full range may contain a lucky round number the half-gap misses.
func TestDirectedLengthBounds(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for _, v := range schryer.CorpusN(n) {
		s, err := ShortestDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		below, err := ShortestBelowDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		above, err := ShortestAboveDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for side, d := range map[string]Digits{"below": below, "above": above} {
			if d.NSig < s.NSig || d.NSig > 18 {
				t.Fatalf("%x %s bound has %d digits, shortest has %d", v, side, d.NSig, s.NSig)
			}
		}
	}
}
