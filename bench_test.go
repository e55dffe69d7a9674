package floatprint

// Benchmark harness regenerating the paper's evaluation (see DESIGN.md §6
// and EXPERIMENTS.md):
//
//   Table 2 — BenchmarkTable2Scaling*: the three scaling algorithms over
//             the Schryer corpus, base 10, free format.
//   Table 3 — BenchmarkTable3*: free format vs straightforward 17-digit
//             fixed format vs simulated printf.
//   §5 stat / ablations — digit-count metric and estimator accuracy are
//             reported as custom benchmark metrics.
//
// Absolute times differ from the 1996 hardware; the claims under test are
// the *ratios* (iterative ≫ estimate, free ≈ 1.66× fixed).  Run
// `go run ./cmd/fpbench -all` for the full-corpus table reproduction with
// pass/fail shape checks.

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"floatprint/internal/baseline"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/gay"
	"floatprint/internal/grisu"
	"floatprint/internal/reader"
	"floatprint/internal/ryu"
	"floatprint/internal/schryer"
)

const benchCorpusSize = 16384

var (
	benchOnce   sync.Once
	benchFloats []float64
	benchValues []fpformat.Value
)

func benchCorpus() ([]float64, []fpformat.Value) {
	benchOnce.Do(func() {
		benchFloats = schryer.CorpusN(benchCorpusSize)
		benchValues = make([]fpformat.Value, len(benchFloats))
		for i, f := range benchFloats {
			benchValues[i] = fpformat.DecodeFloat64(f)
		}
	})
	return benchFloats, benchValues
}

func benchScaling(b *testing.B, s core.Scaling) {
	_, values := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FreeFormat(values[i%len(values)], 10, s, core.ReaderNearestEven); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 2, row 1: Steele & White's iterative scaling (paper: ~145x).
func BenchmarkTable2ScalingIterative(b *testing.B) { benchScaling(b, core.ScalingIterative) }

// Table 2, row 2: floating-point logarithm scaling (paper: ~1.2x).
func BenchmarkTable2ScalingFloatLog(b *testing.B) { benchScaling(b, core.ScalingFloatLog) }

// Table 2, row 3: the paper's estimator with penalty-free fixup (baseline 1x).
func BenchmarkTable2ScalingEstimate(b *testing.B) { benchScaling(b, core.ScalingEstimate) }

// Table 3, column "free-format": shortest output, nearest-even reader.
func BenchmarkTable3FreeFormat(b *testing.B) {
	_, values := benchCorpus()
	totalDigits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.FreeFormat(values[i%len(values)], 10, core.ScalingEstimate, core.ReaderNearestEven)
		if err != nil {
			b.Fatal(err)
		}
		totalDigits += len(r.Digits)
	}
	b.ReportMetric(float64(totalDigits)/float64(b.N), "digits/op") // paper §5: 15.2
}

// Table 3, column "fixed-format": straightforward 17 significant digits.
func BenchmarkTable3Fixed17(b *testing.B) {
	_, values := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.FixedDigits(values[i%len(values)], 10, 17); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 3, column "printf": simulated x87-era printf at 17 digits.
func BenchmarkTable3NaivePrintf(b *testing.B) {
	floats, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.NaivePrintf(floats[i%len(floats)], 17)
	}
}

// Ablation A (DESIGN.md): estimator accuracy, ours vs Gay's, reported as
// exact-hit percentages alongside the cost of each estimate call.
func BenchmarkAblationEstimatorBurgerDybvig(b *testing.B) {
	floats, values := benchCorpus()
	exact := 0
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += core.EstimateScale(values[i%len(values)], 10)
	}
	b.StopTimer()
	_ = sink
	for i, v := range values {
		k, err := core.ExactScale(v, 10, core.ReaderNearestEven)
		if err != nil {
			b.Fatal(err)
		}
		if core.EstimateScale(v, 10) == k {
			exact++
		}
		_ = floats[i]
	}
	b.ReportMetric(100*float64(exact)/float64(len(values)), "%exact")
}

func BenchmarkAblationEstimatorGay(b *testing.B) {
	floats, values := benchCorpus()
	exact := 0
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += gay.EstimateCeilLog10(floats[i%len(floats)])
	}
	b.StopTimer()
	_ = sink
	for i, f := range floats {
		k, err := core.ExactScale(values[i], 10, core.ReaderNearestEven)
		if err != nil {
			b.Fatal(err)
		}
		if gay.EstimateCeilLog10(f) == k {
			exact++
		}
	}
	b.ReportMetric(100*float64(exact)/float64(len(floats)), "%exact")
}

// Three generations of shortest-printing algorithms plus Go's strconv:
// the paper's exact algorithm, Grisu3 (with exact fallback), and Ryū.
func BenchmarkGenerationsDragonExact(b *testing.B) {
	_, values := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.FreeFormat(values[i%len(values)], 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerationsGrisuFallback(b *testing.B) {
	floats, values := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := grisu.Shortest(floats[i%len(floats)]); !ok {
			if _, err := core.FreeFormat(values[i%len(values)], 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGenerationsRyu(b *testing.B) {
	floats, _ := benchCorpus()
	var buf [ryu.BufLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ryu.ShortestInto(buf[:], floats[i%len(floats)])
	}
}

func BenchmarkGenerationsRyuFallback(b *testing.B) {
	floats, values := benchCorpus()
	var buf [ryu.BufLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := ryu.ShortestInto(buf[:], floats[i%len(floats)]); !ok {
			if _, err := core.FreeFormat(values[i%len(values)], 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Public-API end-to-end benchmarks, with Go's strconv for context.
func BenchmarkShortest(b *testing.B) {
	floats, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shortest(floats[i%len(floats)])
	}
}

// AppendShortest on values the default fast backend serves: the headline
// zero-allocation claim.  The registry routes the default options to ryu,
// so the corpus is filtered to values ryu serves (~99.98%) and allocs/op
// must report exactly 0.
func BenchmarkAppendShortestCertified(b *testing.B) {
	floats, _ := benchCorpus()
	certified := make([]float64, 0, len(floats))
	var kb [ryu.BufLen]byte
	for _, f := range floats {
		if _, _, ok := ryu.ShortestInto(kb[:], f); ok {
			certified = append(certified, f)
		}
	}
	if len(certified) == 0 {
		b.Fatal("no certified values in corpus")
	}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendShortest(buf[:0], certified[i%len(certified)])
	}
}

// AppendShortest over the unfiltered corpus: the kernel decides every
// value, ties included, so allocs/op is exactly 0.
func BenchmarkAppendShortest(b *testing.B) {
	floats, _ := benchCorpus()
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendShortest(buf[:0], floats[i%len(floats)])
	}
}

// TestAppendShortestZeroAlloc pins the zero-allocation contract of the
// append path: under the default options and under each of the six
// reader modes, every finite value — the corpus slice unfiltered, a
// final-digit tie, negatives, the format's extremes — must never touch
// the heap.  The benchmarks above report allocations but cannot fail on
// them; this can.
func TestAppendShortestZeroAlloc(t *testing.T) {
	floats, _ := benchCorpus()
	values := append(floats[:256:256], digitTie, -digitTie, -0.3, 5e-324, math.MaxFloat64, -0x1p-1022)
	buf := make([]byte, 0, 64)
	for _, mode := range allModes {
		opts := &Options{Reader: mode}
		if n := testing.AllocsPerRun(20, func() {
			for _, v := range values {
				buf = AppendShortest(buf[:0], v)
				buf = AppendShortestWith(buf[:0], v, opts)
			}
		}); n != 0 {
			t.Fatalf("mode %v: append path allocated %.2f times per run, want 0", mode, n)
		}
	}
}

// Concurrent-regime benchmarks (Gareau & Lemire's experimental-review point
// that shortest-conversion measurements must cover the parallel,
// allocation-aware case).  With the lock-free power cache and pooled
// conversion state these scale near-linearly with GOMAXPROCS; run with
// -cpu=1,2,4,... to see the scaling curve.
func BenchmarkShortestParallel(b *testing.B) {
	floats, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, 64)
		i := 0
		for pb.Next() {
			buf = AppendShortest(buf[:0], floats[i%len(floats)])
			i++
		}
	})
}

// The fixed-format twin of BenchmarkShortestParallel: 17 significant
// digits through the public API (Gay fast path plus exact fallback).
func BenchmarkFixedParallel(b *testing.B) {
	floats, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 0, 64)
		i := 0
		for pb.Next() {
			buf = AppendFixed(buf[:0], floats[i%len(floats)], 17)
			i++
		}
	})
}

// The exact algorithm alone under contention: every iteration takes the
// big-integer path, hammering the power cache and the state pool.
func BenchmarkFreeFormatParallel(b *testing.B) {
	_, values := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := core.FreeFormat(values[i%len(values)], 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func BenchmarkStrconvShortestReference(b *testing.B) {
	floats, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strconv.FormatFloat(floats[i%len(floats)], 'e', -1, 64)
	}
}

func BenchmarkFixedPosition(b *testing.B) {
	floats, _ := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := floats[i%len(floats)]
		if f > 1e18 || f < 1e-18 {
			f = 1234.5678
		}
		FixedPosition(f, -6)
	}
}

func BenchmarkParse(b *testing.B) {
	floats, _ := benchCorpus()
	strs := make([]string, 512)
	for i := range strs {
		strs[i] = Shortest(floats[i*7%len(floats)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strs[i%len(strs)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParseStrings renders the whole benchmark corpus to shortest
// strings once, shared by the parse-path benchmarks so fast path and
// exact reader run over identical input.
var (
	benchParseOnce sync.Once
	benchParseStrs []string
)

func benchParseCorpus() []string {
	benchParseOnce.Do(func() {
		floats, _ := benchCorpus()
		benchParseStrs = make([]string, len(floats))
		for i, f := range floats {
			benchParseStrs[i] = Shortest(f)
		}
	})
	return benchParseStrs
}

// BenchmarkParse_FastPath is the headline read-side number: the public
// Parse over shortest corpus strings, where the Eisel–Lemire path
// certifies ~99.99% of inputs.  The acceptance bar is ≥3× the exact
// reader below.
func BenchmarkParse_FastPath(b *testing.B) {
	strs := benchParseCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(strs[i%len(strs)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModeStrs holds the shortest renderings BenchmarkParseModes reads:
// the first 1,024 corpus values whose magnitude lies in binary32's normal
// range, so both widths read every string through the kernel.
var (
	benchModeOnce sync.Once
	benchModeStrs []string
)

func benchModeStrings() []string {
	benchModeOnce.Do(func() {
		floats, _ := benchCorpus()
		for _, f := range floats {
			// Strictly inside binary32's normal range, so every row times
			// normal results in both widths (the shortest string of 2⁻¹²⁶
			// itself lies just below it, so toward −∞ reads a subnormal,
			// which the kernel rounds at a coarser place).
			if a := math.Abs(f); a > 0x1p-126 && a < math.MaxFloat32 && len(benchModeStrs) < 1024 {
				benchModeStrs = append(benchModeStrs, Shortest(f))
			}
		}
	})
	return benchModeStrs
}

// BenchmarkParseModes is the per-pair cost row of the read side: Parse
// and Parse32 under each reader mode over one shared set of shortest
// renderings.  One kernel serves all ten pairs, so every row reads at
// 0 allocs/op; a pair that fell back to the exact reader would show its
// allocations here.
func BenchmarkParseModes(b *testing.B) {
	strs := benchModeStrings()
	widths := []struct {
		name  string
		parse func(string, *Options) error
	}{
		{"binary64", func(s string, o *Options) error { _, err := Parse(s, o); return err }},
		{"binary32", func(s string, o *Options) error { _, err := Parse32(s, o); return err }},
	}
	for _, w := range widths {
		for _, mode := range []ReaderRounding{
			ReaderNearestEven, ReaderNearestAway, ReaderNearestTowardZero, ReaderTowardNegInf, ReaderTowardPosInf,
		} {
			o := &Options{Reader: mode}
			b.Run(w.name+"/"+mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := w.parse(strs[i%len(strs)], o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParse_ExactReader is the fallback baseline: the big-integer
// reader alone on the same strings.
func BenchmarkParse_ExactReader(b *testing.B) {
	strs := benchParseCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reader.Parse(strs[i%len(strs)], 10, fpformat.Binary64, reader.NearestEven); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrconvParseReference(b *testing.B) {
	floats, _ := benchCorpus()
	strs := make([]string, 512)
	for i := range strs {
		strs[i] = strconv.FormatFloat(floats[i*7%len(floats)], 'e', -1, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strconv.ParseFloat(strs[i%len(strs)], 64); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchParseInput renders 65536 corpus values as NDJSON once,
// shared by the batch-parse benchmarks so all three contenders scan
// identical bytes.  SetBytes makes `go test -bench` report MB/s — the
// figure the CI throughput floor gates on.
var (
	benchBatchParseOnce sync.Once
	benchBatchParseIn   []byte
)

func benchBatchParseInput() []byte {
	benchBatchParseOnce.Do(func() {
		for _, v := range schryer.CorpusN(65536) {
			benchBatchParseIn = AppendShortest(benchBatchParseIn, v)
			benchBatchParseIn = append(benchBatchParseIn, '\n')
		}
	})
	return benchBatchParseIn
}

// BenchmarkBatchParse_Block is the headline ingestion number: the
// block-at-a-time scanner (SWAR 8-digit chunks into the Eisel–Lemire
// certifier) over one contiguous NDJSON range, zero allocations steady
// state.  The acceptance bar is ≥300 MB/s on the CI runner.
func BenchmarkBatchParse_Block(b *testing.B) {
	in := benchBatchParseInput()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	// One untimed pass sizes dst, so the timed passes allocate nothing
	// and allocs/op reads 0 at every b.N: growing dst inside the timed
	// loop would show its allocations at small b.N only.
	dst, err := AppendParseBatch(nil, in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = AppendParseBatch(dst[:0], in)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchParse_PerValue is the same tokens through the public
// per-value Parse — what the block engine must beat to earn its keep.
func BenchmarkBatchParse_PerValue(b *testing.B) {
	in := benchBatchParseInput()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(in); {
			k := j
			for k < len(in) && in[k] != '\n' {
				k++
			}
			if k > j {
				if _, err := Parse(string(in[j:k]), nil); err != nil {
					b.Fatal(err)
				}
			}
			j = k + 1
		}
	}
}

// BenchmarkBatchParse_Strconv is the standard-library baseline over the
// same tokenization.
func BenchmarkBatchParse_Strconv(b *testing.B) {
	in := benchBatchParseInput()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(in); {
			k := j
			for k < len(in) && in[k] != '\n' {
				k++
			}
			if k > j {
				if _, err := strconv.ParseFloat(string(in[j:k]), 64); err != nil {
					b.Fatal(err)
				}
			}
			j = k + 1
		}
	}
}
