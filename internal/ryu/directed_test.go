package ryu

import (
	"math"
	"math/rand"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/schryer"
)

// coreDirected runs the exact one-sided core on |v| and returns its
// digit string and K — the oracle both kernels must match byte for byte.
func coreDirected(t *testing.T, v float64, above bool) (string, int) {
	t.Helper()
	val := fpformat.DecodeFloat64(v)
	val.Neg = false
	var (
		res core.Result
		err error
	)
	if above {
		res, err = core.CeilFormat(val, 10, core.ScalingEstimate)
	} else {
		res, err = core.FloorFormat(val, 10, core.ScalingEstimate)
	}
	if err != nil {
		t.Fatalf("exact directed core(%x, above=%v): %v", math.Float64bits(v), above, err)
	}
	return digitsString(res.Digits), res.K
}

// checkDirected runs both kernels on v and fails on any decline or any
// byte of divergence from the exact core.  The kernels are expected to
// serve every positive finite value: unlike the nearest kernel there is
// no tie case to cede, so a decline is itself a bug.
func checkDirected(t *testing.T, v float64) {
	t.Helper()
	var buf [BufLen]byte
	for _, above := range []bool{false, true} {
		var n, k int
		var ok bool
		if above {
			n, k, ok = ShortestAboveInto(buf[:], v)
		} else {
			n, k, ok = ShortestBelowInto(buf[:], v)
		}
		if !ok {
			t.Fatalf("directed kernel declined %g [%x] above=%v", v, math.Float64bits(v), above)
		}
		got := string(buf[:n])
		wantD, wantK := coreDirected(t, v, above)
		if got != wantD || k != wantK {
			t.Fatalf("directed(%g [%x], above=%v) = %q K=%d, exact core = %q K=%d",
				v, math.Float64bits(v), above, got, k, wantD, wantK)
		}
	}
}

// TestDirectedEdgeValues pins the boundary inventory: format extremes,
// power-of-two gap changes (where mmShift differs), denormals, and
// values on both sides of the e2 sign split.
func TestDirectedEdgeValues(t *testing.T) {
	values := []float64{
		1, 2, 3, 0.5, 0.1, 0.3, 1.0 / 3.0, math.Pi, math.E,
		1e23, 1e22, 9.109383632e-31, 5e-324, math.MaxFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1),
		math.Nextafter(1, 2), math.Nextafter(1, 0), math.Nextafter(2, 1),
		123456789012345680000, 1e300, 1e-300, 2.2250738585072011e-308,
		1.5, 1024, 1 << 52, 1<<53 - 1, 4.9406564584124654e-324,
		7.2057594037927933e16, 0x1p1023, math.Nextafter(0x1p1023, 0),
	}
	for _, v := range values {
		checkDirected(t, v)
	}
}

// TestDirectedMatchesExactCorpus sweeps the full 250,680-value corpus
// (both kernels, both signs of the magnitude handled by the caller, so
// magnitudes only here): byte identity with the exact one-sided core and
// zero declines.
func TestDirectedMatchesExactCorpus(t *testing.T) {
	n := schryer.CorpusSize
	if testing.Short() {
		n = 8000
	}
	for _, v := range schryer.CorpusN(n) {
		checkDirected(t, math.Abs(v))
	}
}

// TestDirectedRandomBits hammers random bit patterns, including the
// denormal band the corpus undersamples.
func TestDirectedRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	iters := 200000
	if testing.Short() {
		iters = 5000
	}
	for i := 0; i < iters; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		checkDirected(t, math.Abs(v))
	}
	// Dense denormal sweep: tiny mantissas have the degenerate mmShift
	// and the deepest e2.
	for m := uint64(1); m < 3000; m++ {
		checkDirected(t, math.Float64frombits(m))
	}
}

// TestDirected32MatchesExact runs the binary32 entry points against the
// exact one-sided core on the binary32 decoding: the first and last 64
// mantissas of every biased exponent (both subnormal ends included) and
// a seeded sample of random bit patterns, each in both directions, with
// no decline.
func TestDirected32MatchesExact(t *testing.T) {
	const ends = 64
	random := 50000
	if testing.Short() {
		random = 2000
	}
	var values []float32
	for be := uint32(0); be < 255; be++ {
		for m := uint32(0); m < ends; m++ {
			values = append(values,
				math.Float32frombits(be<<23|m),
				math.Float32frombits(be<<23|(1<<23-1-m)))
		}
	}
	rng := rand.New(rand.NewSource(11))
	for range random {
		if b := rng.Uint32() &^ (1 << 31); b>>23 != 255 {
			values = append(values, math.Float32frombits(b))
		}
	}
	var buf [BufLen]byte
	for _, v := range values {
		if v == 0 {
			continue
		}
		val := fpformat.DecodeFloat32(v)
		for _, above := range []bool{false, true} {
			var n, k int
			var ok bool
			var res core.Result
			var err error
			if above {
				n, k, ok = ShortestAbove32Into(buf[:], v)
				res, err = core.CeilFormat(val, 10, core.ScalingEstimate)
			} else {
				n, k, ok = ShortestBelow32Into(buf[:], v)
				res, err = core.FloorFormat(val, 10, core.ScalingEstimate)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("directed binary32 kernel declined %g [%x] above=%v", v, math.Float32bits(v), above)
			}
			if got, want := string(buf[:n]), digitsString(res.Digits); got != want || k != res.K {
				t.Fatalf("directed32(%g [%x], above=%v) = %q K=%d, exact core = %q K=%d",
					v, math.Float32bits(v), above, got, k, want, res.K)
			}
		}
	}
}

// TestDirectedDomainDeclines pins the decline contract on out-of-domain
// input: non-positive, non-finite, and undersized buffers must return
// ok == false, never garbage.
func TestDirectedDomainDeclines(t *testing.T) {
	var buf [BufLen]byte
	bad := []float64{0, math.Copysign(0, -1), -1, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, v := range bad {
		if _, _, ok := ShortestBelowInto(buf[:], v); ok {
			t.Errorf("ShortestBelowInto accepted out-of-domain %v", v)
		}
		if _, _, ok := ShortestAboveInto(buf[:], v); ok {
			t.Errorf("ShortestAboveInto accepted out-of-domain %v", v)
		}
	}
	for _, v := range []float32{0, float32(math.Copysign(0, -1)), -1, float32(math.Inf(1)), float32(math.NaN())} {
		if _, _, ok := ShortestBelow32Into(buf[:], v); ok {
			t.Errorf("ShortestBelow32Into accepted out-of-domain %v", v)
		}
		if _, _, ok := ShortestAbove32Into(buf[:], v); ok {
			t.Errorf("ShortestAbove32Into accepted out-of-domain %v", v)
		}
	}
	short := make([]byte, BufLen-1)
	if _, _, ok := ShortestBelowInto(short, 1.5); ok {
		t.Error("ShortestBelowInto accepted an undersized buffer")
	}
	if _, _, ok := ShortestAboveInto(short, 1.5); ok {
		t.Error("ShortestAboveInto accepted an undersized buffer")
	}
}
