package floatprint

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/schryer"
)

// digitTie is a final-digit tie: 2⁻²⁵ = 2.98023223876953125e-8 lies
// exactly halfway between two 17-digit decimals, where the kernel rounds
// up to ...13 as the paper's core does and strconv rounds to even
// (...12).  It is an ordinary kernel input.
const digitTie = 0x1p-25

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
// random values and on a final-digit tie.
func TestBackendsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 0, 2064)
	for i := 0; i < 2000; i++ {
		values = append(values, randomFinite(rng))
	}
	values = append(values, digitTie, 0.3, math.Pi, 1e23, 5e-324,
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
// exactly one Ryū hit and nothing else (on 0.3 and on the digit tie),
// and the request shapes the kernel cannot serve — another base, the
// exact backend — run the exact core without a kernel call.
func TestBackendsAllReaderModes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	values := make([]float64, 0, 516)
	for i := 0; i < 500; i++ {
		values = append(values, randomFinite(rng))
	}
	values = append(values, digitTie, 0.3, 1e23, 5e-324)
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
		for _, v := range []float64{0.3, digitTie} {
			for name, convert := range map[string]func(*Options) error{
				"float64": func(o *Options) error { _, err := ShortestDigits(v, o); return err },
				"float32": func(o *Options) error { _, err := ShortestDigits32(float32(v), o); return err },
				"append":  func(o *Options) error { AppendShortestWith(nil, v, o); return nil },
			} {
				ResetStats()
				if err := convert(&Options{Reader: mode}); err != nil {
					t.Fatal(err)
				}
				if s := Snapshot(); s != (Stats{RyuHits: 1}) {
					t.Errorf("%s(%g), mode %v: %+v, want one ryu hit", name, v, mode, s)
				}
				for _, o := range []Options{
					{Reader: mode, Base: 16},
					{Reader: mode, Backend: BackendExact},
				} {
					ResetStats()
					if err := convert(&o); err != nil {
						t.Fatal(err)
					}
					if s := Snapshot(); s.RyuHits != 0 || s.DirectedRyuHits != 0 || s.ExactFree != 1 {
						t.Errorf("%s(%g), options %+v: %+v, want exact only", name, v, o, s)
					}
				}
			}
		}
	}
}

// allModes are the six reader modes: the four nearest ones, which share
// the nearest kernel, and the two directed ones, each with a one-sided
// kernel.
var allModes = append(nearestModes[:len(nearestModes):len(nearestModes)], ReaderTowardNegInf, ReaderTowardPosInf)

// TestRyuVsExactCorpus is the acceptance-criteria differential: over the
// full 250,680-value Schryer corpus, in both widths (each value and its
// float32 rounding), under all six reader modes, the public API's
// default options must produce exactly the bytes BackendExact produces,
// through ShortestDigits, ShortestDigits32, AppendShortestWith and, for
// the directed modes, the ShortestBelowDigits/ShortestAboveDigits entry
// point that prints the same bound.  The default runs must never reach
// the exact core: a kernel decides every value, ties included, so they
// leave ExactFree at 0 and count one kernel hit per call on a nonzero
// finite value.
func TestRyuVsExactCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential in -short mode")
	}
	corpus := schryer.CorpusN(schryer.CorpusSize)
	if len(corpus) != schryer.CorpusSize {
		t.Fatalf("corpus size %d, want %d", len(corpus), schryer.CorpusSize)
	}
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)
	var tr Trace
	buf := make([]byte, 0, 32)
	for _, mode := range allModes {
		auto, exact := &Options{Reader: mode}, &Options{Reader: mode, Backend: BackendExact}
		directed := map[ReaderRounding]func(float64, *Options) (Digits, error){
			ReaderTowardNegInf: ShortestAboveDigits,
			ReaderTowardPosInf: ShortestBelowDigits,
		}[mode]
		ResetStats()
		calls := uint64(0)
		for _, v := range corpus {
			d, err := ShortestDigitsTraced(v, auto, &tr)
			if err != nil {
				t.Fatal(err)
			}
			d32, err := ShortestDigits32(float32(v), auto)
			if err != nil {
				t.Fatal(err)
			}
			buf = AppendShortestWith(buf[:0], v, auto)
			calls += 2
			if f := float32(v); f != 0 && !math.IsInf(float64(f), 0) {
				calls++ // out of binary32 range, float32(v) is a special
			}
			var dd Digits
			if directed != nil {
				if dd, err = directed(v, nil); err != nil {
					t.Fatal(err)
				}
				calls++
			}

			SetStatsEnabled(false) // count the default-option runs only
			ref, err := ShortestDigits(v, exact)
			if err != nil {
				t.Fatal(err)
			}
			ref32, err := ShortestDigits32(float32(v), exact)
			if err != nil {
				t.Fatal(err)
			}
			SetStatsEnabled(true)
			if d.String() != ref.String() || tr.Backend != TraceBackendRyu {
				t.Fatalf("mode %v, %g [%x]: %q by %v, exact %q",
					mode, v, math.Float64bits(v), d.String(), tr.Backend, ref.String())
			}
			if d32.String() != ref32.String() {
				t.Fatalf("mode %v, float32 %g [%x]: %q, exact %q",
					mode, float32(v), math.Float32bits(float32(v)), d32.String(), ref32.String())
			}
			if string(buf) != ref.String() {
				t.Fatalf("mode %v: AppendShortestWith(%g) = %q, exact %q", mode, v, buf, ref.String())
			}
			if directed != nil && dd.String() != ref.String() {
				t.Fatalf("mode %v: one-sided entry point on %g = %q, exact %q", mode, v, dd.String(), ref.String())
			}
		}
		s := Snapshot()
		hits := s.RyuHits + s.DirectedRyuHits
		t.Logf("mode %v: %d default-option calls, %d kernel hits, %d exact", mode, calls, hits, s.ExactFree)
		if s.ExactFree != 0 || hits != calls {
			t.Errorf("mode %v: default options reached the exact core %d times, kernel hits %d of %d calls",
				mode, s.ExactFree, hits, calls)
		}
	}
}

// TestShortest32MatchesExactAllModes is the float32 sweep: through the
// public dispatch, ShortestDigits32 must equal the exact core on the
// binary32 decoding under every reader mode — the free-format core
// under the nearest ones, the one-sided core under the directed ones —
// and every nonzero value must be a kernel hit that never reaches the
// exact core.  The inputs are both ends of every binade (the first and
// last 32 mantissas of each biased exponent, so both subnormal ends
// too) and a seeded sample of random bit patterns.
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
	for _, mode := range allModes {
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
			val := fpformat.DecodeFloat32(v)
			var exact core.Result
			switch mode {
			case ReaderTowardNegInf:
				exact, err = core.CeilFormat(val, 10, core.ScalingEstimate)
			case ReaderTowardPosInf:
				exact, err = core.FloorFormat(val, 10, core.ScalingEstimate)
			default:
				exact, err = core.FreeFormat(val, 10, core.ScalingEstimate, cm)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(d.Digits, exact.Digits) || d.K != exact.K {
				t.Fatalf("mode %v, float32 %g [%x]: %v ×10^%d, exact %v ×10^%d",
					mode, v, math.Float32bits(v), d.Digits, d.K, exact.Digits, exact.K)
			}
		}
		s := Snapshot()
		hits := s.RyuHits + s.DirectedRyuHits
		t.Logf("mode %v: %d float32 values, %d kernel hits", mode, len(values), hits)
		if hits != uint64(nonzero) || s.ExactFree != 0 {
			t.Errorf("mode %v: kernel hits %d, exact %d over %d nonzero values",
				mode, hits, s.ExactFree, nonzero)
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
					v = digitTie
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
