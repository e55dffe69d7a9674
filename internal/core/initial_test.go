package core

import (
	"math"
	"math/rand"
	"testing"

	"floatprint/internal/bignat"
	"floatprint/internal/bigrat"
	"floatprint/internal/fpformat"
)

// TestTable1InitialValues validates the paper's Table 1 directly: for each
// of the four (e sign × boundary) rows, the constructed integers must
// satisfy r/s = v, m⁺/s = (v⁺−v)/2, and m⁻/s = (v−v⁻)/2 exactly, where v⁺
// is the virtual successor (f+1)·bᵉ and v⁻ follows the narrowed-gap rule.
func TestTable1InitialValues(t *testing.T) {
	check := func(v fpformat.Value, label string) {
		t.Helper()
		st := newState(v, 10, false, false)

		vr := valueRat(v)
		if bigrat.Cmp(bigrat.New(st.r, st.s), vr) != 0 {
			t.Fatalf("%s: r/s != v (r=%v s=%v)", label, st.r, st.s)
		}

		b := v.Fmt.Base
		gapHigh := ratPow(b, v.E)
		if bigrat.Cmp(bigrat.New(st.mp, st.s), bigrat.Half(gapHigh)) != 0 {
			t.Fatalf("%s: m+/s != (v+ - v)/2", label)
		}
		gapLow := gapHigh
		if v.IsBoundary() && v.E > v.Fmt.MinExp {
			gapLow = ratPow(b, v.E-1)
		}
		if bigrat.Cmp(bigrat.New(st.mm, st.s), bigrat.Half(gapLow)) != 0 {
			t.Fatalf("%s: m-/s != (v - v-)/2", label)
		}
	}

	// Row 1: e >= 0, not a boundary.
	check(fpformat.DecodeFloat64(float64(3<<53)), "row1")
	// Row 2: e >= 0, boundary (power of two with a large exponent).
	check(fpformat.DecodeFloat64(0x1p60), "row2")
	if !fpformat.DecodeFloat64(0x1p60).IsBoundary() {
		t.Fatal("2^60 should be a boundary case")
	}
	// Row 3: e < 0, not a boundary (includes denormals).
	check(fpformat.DecodeFloat64(0.3), "row3")
	check(fpformat.DecodeFloat64(5e-324), "row3-denormal")
	// Row 4: e < 0, boundary.
	check(fpformat.DecodeFloat64(1.0), "row4")
	check(fpformat.DecodeFloat64(0x1p-1022), "row4-min-normal-boundary")

	// Randomized sweep over all rows.
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 500; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		check(fpformat.DecodeFloat64(v), "random")
	}
}

// TestTable1DenormalBoundaryExclusion: the smallest normal (f = b^(p-1),
// e = MinExp) must NOT take the narrow-gap row, since its predecessor is
// the top denormal at the same exponent.
func TestTable1DenormalBoundaryExclusion(t *testing.T) {
	v := fpformat.DecodeFloat64(math.Ldexp(1, -1022)) // smallest normal: f = 2^52, e = MinExp
	if v.E != v.Fmt.MinExp {
		t.Fatalf("unexpected decode of smallest normal: e=%d", v.E)
	}
	st := newState(v, 10, false, false)
	// Equal gaps on both sides: m+ == m-.
	if bignat.Cmp(st.mp, st.mm) != 0 {
		t.Fatalf("smallest normal should have symmetric gaps: m+=%v m-=%v", st.mp, st.mm)
	}
}

func TestOwnedCopyIsolation(t *testing.T) {
	// The power cache must never be corrupted by in-place digit-loop
	// mutation: convert the same value twice and require identical output.
	v := fpformat.DecodeFloat64(1e100)
	a, err := FreeFormat(v, 10, ScalingEstimate, ReaderNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FreeFormat(v, 10, ScalingEstimate, ReaderNearestEven)
	if err != nil {
		t.Fatal(err)
	}
	if digitsString(a.Digits) != digitsString(b.Digits) || a.K != b.K {
		t.Fatalf("repeated conversion differs: power cache corrupted")
	}
	// And the cache still holds the true power.
	p := bignat.Powers(10).Pow(100)
	if bignat.Cmp(p, bignat.PowUint(10, 100)) != 0 {
		t.Fatalf("10^100 cache entry corrupted")
	}
}

func TestScaleOpsCounts(t *testing.T) {
	// The estimator must be O(1) ops regardless of magnitude; the
	// iterative search must grow linearly with |log v|.
	for _, v := range []float64{1.5, 1e50, 1e-50, 1e300, 1e-300, 5e-324} {
		val := fpformat.DecodeFloat64(v)
		_, estOps, err := ScaleOps(val, 10, ScalingEstimate, ReaderNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		if estOps > 12 {
			t.Errorf("estimate scaling of %g used %d ops; want O(1)", v, estOps)
		}
		_, iterOps, err := ScaleOps(val, 10, ScalingIterative, ReaderNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		wantMin := int(math.Abs(math.Log10(math.Abs(v)))) // ≈ |k| steps at 2+ ops each
		if v == 5e-324 {
			wantMin = 300 // math.Log10 flushes subnormals on some platforms
		}
		if iterOps < wantMin {
			t.Errorf("iterative scaling of %g used only %d ops; expected >= %d", v, iterOps, wantMin)
		}
	}
}

func TestScaleOpsErrors(t *testing.T) {
	if _, _, err := ScaleOps(fpformat.DecodeFloat64(-1), 10, ScalingEstimate, ReaderNearestEven); err == nil {
		t.Errorf("negative value accepted")
	}
	if _, _, err := ScaleOps(fpformat.DecodeFloat64(1.5), 99, ScalingEstimate, ReaderNearestEven); err == nil {
		t.Errorf("bad base accepted")
	}
}

// TestEstimateScaleNeverOvershoots verifies the load-bearing property of
// the paper's estimator across magnitudes, formats, and bases: the
// estimate is k or k−1, never above k.
func TestEstimateScaleNeverOvershoots(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	bases := []int{2, 3, 10, 16, 36}
	for i := 0; i < 4000; i++ {
		v := math.Abs(math.Float64frombits(r.Uint64()))
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		val := fpformat.DecodeFloat64(v)
		base := bases[i%len(bases)]
		trueK, err := ExactScale(val, base, ReaderNearestEven)
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateScale(val, base)
		if est > trueK {
			t.Fatalf("estimate %d overshoots true k %d for %g base %d", est, trueK, v, base)
		}
		if trueK-est > 1 {
			t.Fatalf("estimate %d undershoots true k %d by more than one for %g base %d",
				est, trueK, v, base)
		}
	}
}

func TestDigitLength(t *testing.T) {
	cases := []struct {
		n    uint64
		base int
		want int
	}{
		{1, 10, 1}, {9, 10, 1}, {10, 10, 2}, {99, 10, 2}, {100, 10, 3},
		{1, 3, 1}, {2, 3, 1}, {3, 3, 2}, {8, 3, 2}, {9, 3, 3},
		{255, 16, 2}, {256, 16, 3},
	}
	for _, c := range cases {
		if got := digitLength(bignat.FromUint64(c.n), c.base); got != c.want {
			t.Errorf("digitLength(%d, base %d) = %d, want %d", c.n, c.base, got, c.want)
		}
	}
	// Wide value.
	if got := digitLength(bignat.PowUint(10, 100), 10); got != 101 {
		t.Errorf("digitLength(10^100) = %d, want 101", got)
	}
}

func TestIncrementLastAndTrim(t *testing.T) {
	d, k := incrementLast([]byte{1, 2, 3}, 10, 5)
	if digitsString(d) != "124" || k != 5 {
		t.Errorf("simple increment wrong: %q %d", digitsString(d), k)
	}
	d, k = incrementLast([]byte{1, 9, 9}, 10, 5)
	if digitsString(d) != "200" || k != 5 {
		t.Errorf("ripple increment wrong: %q %d", digitsString(d), k)
	}
	d, k = incrementLast([]byte{9, 9}, 10, 5)
	if digitsString(d) != "100" || k != 6 {
		t.Errorf("carry-out increment wrong: %q %d", digitsString(d), k)
	}
	d, k = incrementLast([]byte{1, 1}, 2, 0)
	if digitsString(d) != "100" || k != 1 {
		t.Errorf("base-2 carry-out wrong: %q %d", digitsString(d), k)
	}
	if got := trimTrailingZeros([]byte{1, 0, 0}); digitsString(got) != "1" {
		t.Errorf("trim wrong: %q", digitsString(got))
	}
	if got := trimTrailingZeros([]byte{0}); digitsString(got) != "0" {
		t.Errorf("trim of single zero should keep one digit: %q", digitsString(got))
	}
}

// ratPowRoundTrip sanity for the helpers the reference algorithm uses.
func TestRatHelpers(t *testing.T) {
	if bigrat.Cmp(ratPow(10, 3), bigrat.FromUint64(1000)) != 0 {
		t.Errorf("ratPow(10,3) wrong")
	}
	neg := ratPow(10, -2)
	if bigrat.Cmp(bigrat.MulWord(neg, 100), bigrat.FromUint64(1)) != 0 {
		t.Errorf("ratPow(10,-2) wrong")
	}
	v := fpformat.DecodeFloat64(0.5)
	if bigrat.Cmp(valueRat(v), bigrat.New(bignat.FromUint64(1), bignat.FromUint64(2))) != 0 {
		t.Errorf("valueRat(0.5) != 1/2")
	}
}
