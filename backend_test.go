package floatprint

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/ryu"
	"floatprint/internal/schryer"
)

// findRyuDecline returns a corpus value the Ryū backend declines (an
// exact-halfway tie), failing the test if the corpus contains none.
func findRyuDecline(t *testing.T) float64 {
	t.Helper()
	for _, v := range schryer.CorpusN(schryer.CorpusSize) {
		if _, _, ok := ryu.Shortest(v); !ok {
			return v
		}
	}
	t.Fatal("no ryu tie decline in the Schryer corpus")
	return 0
}

var backendList = []Backend{BackendAuto, BackendExact}

// nearestModes are the four nearest reader modes, which share the nearest
// Ryū kernel.
var nearestModes = []ReaderRounding{
	ReaderNearestEven, ReaderUnknown, ReaderNearestAway, ReaderNearestTowardZero,
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{
		{"", BackendAuto}, {"auto", BackendAuto}, {"exact", BackendExact},
	} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() == "" {
			t.Errorf("Backend(%v).String() empty", got)
		}
	}
	for _, name := range []string{"grisu", "ryu", "dragon4"} {
		if _, err := ParseBackend(name); err == nil {
			t.Errorf("ParseBackend(%q) succeeded, want error", name)
		}
	}
	if _, err := ShortestDigits(1.5, &Options{Backend: Backend(99)}); err == nil {
		t.Error("out-of-range Options.Backend accepted")
	}
}

// TestBackendsByteIdentical is the registry's core contract: every
// backend selection yields byte-identical Digits for the same value, on
// random values and on the values Ryū declines.
func TestBackendsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 0, 2064)
	for i := 0; i < 2000; i++ {
		values = append(values, randomFinite(rng))
	}
	values = append(values, findRyuDecline(t), 0.3, math.Pi, 1e23, 5e-324,
		math.MaxFloat64, 0x1p-1022)
	for _, v := range values {
		ref, err := ShortestDigits(v, &Options{Backend: BackendExact})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range backendList {
			d, err := ShortestDigits(v, &Options{Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Digits, ref.Digits) || d.K != ref.K || d.NSig != ref.NSig {
				t.Fatalf("backend %v for %g [%x]: %v ×10^%d, exact %v ×10^%d",
					b, v, math.Float64bits(v), d.Digits, d.K, ref.Digits, ref.K)
			}
			if got, want := string(AppendShortestWith(nil, v, &Options{Backend: b})), ref.String(); got != want {
				t.Fatalf("AppendShortestWith(%v, %g) = %q, want %q", b, v, got, want)
			}
		}
	}
}

// TestBackendsAllReaderModes is the mode guard: under every nearest
// reader mode × backend selection the output must equal the exact core's
// for that mode.  The nearest kernel serves all four modes, so this is a
// differential test of its endpoint flags as much as of the dispatch.
// It also pins the static dispatch in front of the kernel: every nearest
// mode, for float64 and float32 and through the append path alike, makes
// exactly one Ryū attempt (a hit, on 0.3), and the request shapes the
// kernel cannot serve — another base, a benchmark scaling, the exact
// backend — run the exact core without an attempt.
func TestBackendsAllReaderModes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	values := make([]float64, 0, 516)
	for i := 0; i < 500; i++ {
		values = append(values, randomFinite(rng))
	}
	values = append(values, findRyuDecline(t), 0.3, 1e23, 5e-324)
	for _, v := range values {
		val := fpformat.DecodeFloat64(v)
		for _, mode := range nearestModes {
			exact, err := core.FreeFormat(val, 10, core.ScalingEstimate,
				Options{Reader: mode}.Reader.core())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range backendList {
				d, err := ShortestDigits(v, &Options{Reader: mode, Backend: b})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(d.Digits, exact.Digits) || d.K != exact.K {
					t.Fatalf("backend %v, mode %v, %g [%x]: %v ×10^%d, exact %v ×10^%d",
						b, mode, v, math.Float64bits(v), d.Digits, d.K, exact.Digits, exact.K)
				}
			}
		}
	}

	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)
	for _, mode := range nearestModes {
		for name, convert := range map[string]func(*Options) error{
			"float64": func(o *Options) error { _, err := ShortestDigits(0.3, o); return err },
			"float32": func(o *Options) error { _, err := ShortestDigits32(0.3, o); return err },
			"append":  func(o *Options) error { AppendShortestWith(nil, 0.3, o); return nil },
		} {
			ResetStats()
			if err := convert(&Options{Reader: mode}); err != nil {
				t.Fatal(err)
			}
			if s := Snapshot(); s.RyuHits != 1 || s.RyuMisses != 0 || s.ExactFree != 0 {
				t.Errorf("%s, mode %v: %+v, want one ryu hit", name, mode, s)
			}
			for _, o := range []Options{
				{Reader: mode, Base: 16},
				{Reader: mode, Backend: BackendExact},
			} {
				ResetStats()
				if err := convert(&o); err != nil {
					t.Fatal(err)
				}
				if s := Snapshot(); s.RyuHits != 0 || s.RyuMisses != 0 || s.ExactFree != 1 {
					t.Errorf("%s, options %+v: %+v, want exact only", name, o, s)
				}
			}
		}
	}
}

// TestRyuVsExactCorpus is the acceptance-criteria differential: over the
// full 250,680-value Schryer corpus, under each of the four nearest
// reader modes, the public API's default options must produce exactly
// the bytes BackendExact produces, and every value the kernel declines
// must be an exact-halfway tie.
func TestRyuVsExactCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential in -short mode")
	}
	corpus := schryer.CorpusN(schryer.CorpusSize)
	if len(corpus) != schryer.CorpusSize {
		t.Fatalf("corpus size %d, want %d", len(corpus), schryer.CorpusSize)
	}
	var tr Trace
	buf := make([]byte, 0, 32)
	for _, mode := range nearestModes {
		auto, exact := &Options{Reader: mode}, &Options{Reader: mode, Backend: BackendExact}
		declines := 0
		for _, v := range corpus {
			d, err := ShortestDigitsTraced(v, auto, &tr)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ShortestDigits(v, exact)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Digits, ref.Digits) || d.K != ref.K {
				t.Fatalf("mode %v, %g [%x]: %v ×10^%d, exact %v ×10^%d",
					mode, v, math.Float64bits(v), d.Digits, d.K, ref.Digits, ref.K)
			}
			if buf = AppendShortestWith(buf[:0], v, auto); string(buf) != ref.String() {
				t.Fatalf("mode %v: AppendShortestWith(%g) = %q, exact %q", mode, v, buf, ref.String())
			}
			if tr.FastPathMiss {
				declines++
				if !exactHalfway(v, ref) {
					t.Errorf("mode %v: ryu declined %g [%x], which is not an exact-halfway tie",
						mode, v, math.Float64bits(v))
				}
			}
		}
		t.Logf("mode %v: ryu declines %d of %d (%.4f%%)",
			mode, declines, len(corpus), 100*float64(declines)/float64(len(corpus)))
		if declines > 42 {
			t.Errorf("mode %v: %d declines, want at most the corpus's 42 exact-halfway ties", mode, declines)
		}
	}
}

// exactHalfway reports whether v lies exactly halfway between two
// adjacent decimals of the same length and d, its exact-core rendering,
// is one of them: v's exact decimal expansion ends in a 5, and d is that
// expansion with the 5 dropped, rounded down or up.
func exactHalfway(v float64, d Digits) bool {
	s := strconv.FormatFloat(v, 'e', 767, 64) // every binary64 is exact in 767 digits
	e := strings.IndexByte(s, 'e')
	exp, _ := strconv.Atoi(s[e+1:])
	mant := strings.TrimRight(strings.Replace(s[:e], ".", "", 1), "0")
	if len(mant) < 2 || mant[len(mant)-1] != '5' {
		return false
	}
	// The candidates below and above v, in units of 10^scale, the weight
	// of the digit before the 5.
	lo, _ := new(big.Int).SetString(mant[:len(mant)-1], 10)
	hi := new(big.Int).Add(lo, big.NewInt(1))
	scale := exp - (len(mant) - 2)
	// d is out × 10^(d.K-len(d.Digits)); bring it to the same units.
	ten := big.NewInt(10)
	out := new(big.Int)
	for _, digit := range d.Digits {
		out.Mul(out, ten).Add(out, big.NewInt(int64(digit)))
	}
	if d.K-len(d.Digits) < scale {
		return false
	}
	for i := d.K - len(d.Digits); i > scale; i-- {
		out.Mul(out, ten)
	}
	return out.Cmp(lo) == 0 || out.Cmp(hi) == 0
}

// TestShortest32MatchesExactAllModes is the float32 sweep: through the
// public dispatch, ShortestDigits32 must equal the exact core on the
// binary32 decoding under every nearest reader mode.  The inputs are both
// ends of every binade (the first and last 32 mantissas of each biased
// exponent, so both subnormal ends too) and a seeded sample of random bit
// patterns.
func TestShortest32MatchesExactAllModes(t *testing.T) {
	const ends, random = 32, 20000
	var values []float32
	for be := uint32(0); be < 255; be++ {
		for m := uint32(0); m < ends; m++ {
			values = append(values,
				math.Float32frombits(be<<23|m),
				math.Float32frombits(be<<23|(1<<23-1-m)))
		}
	}
	rng := rand.New(rand.NewSource(32))
	for len(values) < 255*2*ends+random {
		if b := rng.Uint32() &^ (1 << 31); b>>23 != 255 {
			values = append(values, math.Float32frombits(b))
		}
	}
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)
	for _, mode := range nearestModes {
		ResetStats()
		cm := Options{Reader: mode}.Reader.core()
		nonzero := 0
		for _, v := range values {
			d, err := ShortestDigits32(v, &Options{Reader: mode})
			if err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				continue
			}
			nonzero++
			exact, err := core.FreeFormat(fpformat.DecodeFloat32(v), 10, core.ScalingEstimate, cm)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Digits, exact.Digits) || d.K != exact.K {
				t.Fatalf("mode %v, float32 %g [%x]: %v ×10^%d, exact %v ×10^%d",
					mode, v, math.Float32bits(v), d.Digits, d.K, exact.Digits, exact.K)
			}
		}
		s := Snapshot()
		t.Logf("mode %v: %d float32 values, ryu declines %d", mode, len(values), s.RyuMisses)
		if s.RyuHits+s.RyuMisses != uint64(nonzero) || s.RyuMisses > uint64(nonzero/100) {
			t.Errorf("mode %v: ryu hits %d, misses %d over %d nonzero values",
				mode, s.RyuHits, s.RyuMisses, nonzero)
		}
	}
}

// TestRyuSubnormalFrontier pins the subnormal boundary region where the
// decode branches (ieeeExponent == 0, the mmShift special case) change:
// the smallest subnormal, the largest subnormal, the smallest normal, and
// a walk across the frontier, each against the exact core.
func TestRyuSubnormalFrontier(t *testing.T) {
	var values []float64
	for delta := -50; delta <= 50; delta++ {
		bits := uint64(1)<<52 + uint64(delta) // around the smallest normal
		values = append(values, math.Float64frombits(bits))
	}
	values = append(values, 5e-324, math.Float64frombits(1<<52-1), 0x1p-1022)
	for _, v := range values {
		ref, err := ShortestDigits(v, &Options{Backend: BackendExact})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ShortestDigits(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Digits, ref.Digits) || got.K != ref.K {
			t.Fatalf("subnormal frontier %x: ryu %v ×10^%d, exact %v ×10^%d",
				math.Float64bits(v), got.Digits, got.K, ref.Digits, ref.K)
		}
	}
}

// TestBackendSelectionConcurrent is the -race twin for the registry: many
// goroutines converting through different backend selections and reader
// modes concurrently, with telemetry enabled, must agree with the exact
// core and trip no data races.
func TestBackendSelectionConcurrent(t *testing.T) {
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	corpus := schryer.CorpusN(2000)
	tie := findRyuDecline(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			opts := &Options{
				Backend: backendList[w%len(backendList)],
			}
			if w >= 4 {
				opts.Reader = ReaderNearestAway
			}
			buf := make([]byte, 0, 64)
			for i, v := range corpus {
				if i%97 == 0 {
					v = tie
				}
				buf = AppendShortestWith(buf[:0], v, opts)
				d, err := ShortestDigits(v, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if string(buf) != d.String() {
					t.Errorf("append/digits mismatch for %g under %+v", v, *opts)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
