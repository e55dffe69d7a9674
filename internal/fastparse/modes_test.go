package fastparse

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"floatprint/internal/fpformat"
	"floatprint/internal/reader"
	"floatprint/internal/schryer"
)

// modes is every reader mode, all of which the kernel serves.
var modes = [...]reader.RoundMode{
	reader.NearestEven, reader.NearestAway, reader.NearestTowardZero,
	reader.TowardNegInf, reader.TowardPosInf,
}

// checkAgainstReader certifies one input against the exact reader under
// every mode in both widths.  A served (ok) result must match the
// reader's bits exactly AND the reader must report no error for that
// input — the fast path's contract includes error identity, so anything
// the reader would flag (ErrRange saturation in particular) must have
// been declined.  Returns which of the binary64 reads declined, one flag
// per entry of modes.
func checkAgainstReader(t *testing.T, s string) (declined64 [len(modes)]bool) {
	t.Helper()
	for i, mode := range modes {
		if f, _, ok := Read64(s, mode); !ok {
			declined64[i] = true
		} else if want := exactValue(t, s, fpformat.Binary64, mode); math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("Read64(%q, %v) = %x, exact reader = %x", s, mode, math.Float64bits(f), math.Float64bits(want))
		}
		if f, _, ok := Read32(s, mode); ok {
			if want := float32(exactValue(t, s, fpformat.Binary32, mode)); math.Float32bits(f) != math.Float32bits(want) {
				t.Fatalf("Read32(%q, %v) = %x, exact reader = %x", s, mode, math.Float32bits(f), math.Float32bits(want))
			}
		}
	}
	return declined64
}

// exactValue is the exact reader's value for a certified input s under
// mode in format f, widened to float64.  The reader rejecting s, or
// pairing its value with an error, fails the test: the fast path must
// have declined.
func exactValue(t *testing.T, s string, f *fpformat.Format, mode reader.RoundMode) float64 {
	t.Helper()
	n, err := reader.ParseText(s, 10)
	if err != nil {
		t.Fatalf("fast path certified %q under %v, which the reader rejects: %v", s, mode, err)
	}
	v, err := reader.Convert(n, f, mode)
	if err != nil {
		t.Fatalf("fast path certified %q under %v at %d bits, but the exact reader signals %v — error identity broken",
			s, mode, f.Precision, err)
	}
	if f == fpformat.Binary32 {
		w, err := v.Float32()
		if err != nil {
			t.Fatalf("reader.Convert(%q) Float32: %v", s, err)
		}
		return float64(w)
	}
	w, err := v.Float64()
	if err != nil {
		t.Fatalf("reader.Convert(%q) Float64: %v", s, err)
	}
	return w
}

// TestDirectedParseEdgeInputs sweeps the range frontier, the dyadic
// band, ties, zeros, truncated significands, and syntax the scanner
// declines, under every mode in both widths.
func TestDirectedParseEdgeInputs(t *testing.T) {
	inputs := []string{
		"0", "-0", "+0", "0.000e5", "-0e-999",
		"1", "-1", "0.5", "-0.5", "0.25", "0.125", "1.5", "2.5", "3.75",
		"0.1", "0.3", "-0.1", "3.1415926535897932384626433832795028841971",
		"3.0517578125e-05",        // 2^-15: dyadic via 5^5 | 30517578125
		"7450580596923828125e-27", // 5^27·10^-27 = 2^-27: the deepest dyadic window
		"7450580596923828125e-28", // 5^27·10^-28: not dyadic (one extra 5 in the denominator)
		"1.7976931348623157e308",  // MaxFloat64 exactly
		"1.7976931348623158e308",  // above MaxFloat64: saturates with ErrRange, must decline
		"-1.7976931348623158e308", //
		"1e308", "1e309", "-1e309", "2e308",
		"1e999", "1e-999", "-1e-999", "1e999999999",
		"4.9406564584124654e-324", // smallest denormal
		"2.2250738585072014e-308", // smallest normal
		"2.2250738585072011e-308", // just below the normal floor
		"2.2250738585072013e-308", //
		"1e-323", "9.9e-324", "1e-350",
		"9007199254740993",                   // 2^53+1: exactly between representables
		"9007199254740992.5",                 //
		"4503599627370496.5", "524288.03125", // dyadic ties: 2^52+1/2, 2^19+2^-5
		"1e23", "-1e23", "16777217", "-16777217", "33554435", // decimal ties
		"3.4028235677973366e38", "3.4028236e38", "3.4028235e38", // binary32 overflow frontier
		"1.1754943508222875e-38", "1.1754942e-38", "1.4e-45", // binary32 normal floor, subnormals
		"123456789012345678901234567890",      // truncated significand
		"1234567890123456789012345678901e-35", //
		"99999999999999999999999999999999e10", //
		"0.000000000000000000001234567890123456789012345",
		"1e", "e5", "..1", "1.2.3", "nan", "inf", " 1", "1 ", "1#2",
		"12#", "12#.#e2", "1@5", "1@-5",
	}
	for _, s := range inputs {
		checkAgainstReader(t, s)
	}
}

// TestDirectedParseCorpus certifies the fast path over the shortest
// decimal strings of the full corpus — the served workloads' exact input
// distribution — under every mode in both widths, and pins the binary64
// hit rate of each mode on its own: the kernel exists to serve this
// traffic, so wholesale declining in any one mode (a wrong-but-safe
// implementation) fails loudly.
func TestDirectedParseCorpus(t *testing.T) {
	n := schryer.CorpusSize
	if testing.Short() {
		n = 8000
	}
	var declines [len(modes)]int
	for _, v := range schryer.CorpusN(n) {
		s := strconv.FormatFloat(v, 'g', -1, 64)
		for i, d := range checkAgainstReader(t, s) {
			declines[i] += int(b2u(d))
		}
	}
	for i, mode := range modes {
		if rate := float64(declines[i]) / float64(n); rate > 0.001 {
			t.Errorf("fast path declined %d/%d binary64 corpus parses under %v (%.4f%%); expected a near-zero decline rate",
				declines[i], n, mode, 100*rate)
		}
	}
}

// TestDirectedParseRandom hammers random significand/exponent
// combinations, weighted toward the table edges and high digit counts.
func TestDirectedParseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	iters := 60000
	if testing.Short() {
		iters = 3000
	}
	for i := 0; i < iters; i++ {
		man := rng.Uint64() >> uint(rng.Intn(40))
		exp := rng.Intn(700) - 360
		var s string
		switch rng.Intn(4) {
		case 0:
			s = fmt.Sprintf("%de%d", man, exp)
		case 1:
			s = fmt.Sprintf("%d.%de%d", man, rng.Uint64()%1000000, exp)
		case 2:
			s = fmt.Sprintf("-%de%d", man, exp)
		default:
			s = fmt.Sprintf("%d%d.%de%d", man, rng.Uint64(), rng.Uint64(), exp)
		}
		checkAgainstReader(t, s)
	}
	// Dense sweep of the dyadic window: man = k·5^j at small negative
	// exponents, where the exact-integer path and its neighbors live.
	for j := 0; j <= 27; j++ {
		for k := uint64(1); k <= 6; k++ {
			if pow5[j] > math.MaxUint64/k {
				continue
			}
			for e := -30; e <= 0; e++ {
				checkAgainstReader(t, fmt.Sprintf("%de%d", k*pow5[j], e))
			}
		}
	}
}

// TestSubnormalFamily reads renderings of subnormal values of both
// widths, random and at the range's ends, with both signs, under every
// mode in both widths against the exact reader: the shortest, 17-, 26-
// and 31-digit renderings of binary64 subnormals, and the shortest, 13-
// and 21-digit renderings of binary32 subnormals.  The kernel rounds a
// subnormal result at its own last place, so no rendering of at most 19
// digits may decline in the width it was printed from; past 19 digits
// the truncated significand's pinch may straddle a representable value
// under the directed modes, and those inputs may decline.
func TestSubnormalFamily(t *testing.T) {
	rng := rand.New(rand.NewSource(324))
	n := 4000
	if testing.Short() {
		n = 400
	}
	bits64 := []uint64{1, 2, 3, 1<<52 - 1, 1<<52 - 2, 1 << 51, 1<<51 + 1, 1 << 52}
	bits32 := []uint32{1, 2, 3, 1<<23 - 1, 1<<23 - 2, 1 << 22, 1<<22 + 1, 1 << 23}
	for i := 0; i < n; i++ {
		bits64 = append(bits64, (rng.Uint64()&(1<<52-1))>>uint(rng.Intn(52))|1)
		bits32 = append(bits32, (rng.Uint32()&(1<<23-1))>>uint(rng.Intn(23))|1)
	}
	check := func(s string, short, width32 bool) {
		for _, s := range []string{s, "-" + s} {
			declined := checkAgainstReader(t, s)
			if !short {
				continue
			}
			for i, mode := range modes {
				if width32 {
					if _, _, ok := Read32(s, mode); !ok {
						t.Errorf("Read32(%q, %v) declined", s, mode)
					}
				} else if declined[i] {
					t.Errorf("Read64(%q, %v) declined", s, mode)
				}
			}
		}
	}
	for _, b := range bits64 {
		v := math.Float64frombits(b)
		check(strconv.FormatFloat(v, 'g', -1, 64), true, false)
		check(strconv.FormatFloat(v, 'e', 16, 64), true, false)
		check(strconv.FormatFloat(v, 'e', 25, 64), false, false)
		check(strconv.FormatFloat(v, 'e', 30, 64), false, false)
	}
	for _, b := range bits32 {
		v := float64(math.Float32frombits(b))
		check(strconv.FormatFloat(v, 'g', -1, 32), true, true)
		check(strconv.FormatFloat(v, 'e', 12, 32), true, true)
		check(strconv.FormatFloat(v, 'e', 20, 32), false, true)
	}
}
