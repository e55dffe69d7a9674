package core

import (
	"math"
	"math/rand"
	"testing"

	"floatprint/internal/bignat"
	"floatprint/internal/fpformat"
)

// corpusValues builds a deterministic value set with full exponent spread
// for the core-internal benchmarks.
func corpusValues(n int) []fpformat.Value {
	r := rand.New(rand.NewSource(99))
	vals := make([]fpformat.Value, 0, n)
	for len(vals) < n {
		v := math.Float64frombits(r.Uint64())
		if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
			continue
		}
		vals = append(vals, fpformat.DecodeFloat64(math.Abs(v)))
	}
	return vals
}

// offByOneValues filters to the values whose scale estimate is k−1 — the
// only cases where the fixup strategy matters at all.
func offByOneValues(n int) []fpformat.Value {
	var out []fpformat.Value
	for _, v := range corpusValues(n * 6) {
		k, err := ExactScale(v, 10, ReaderNearestEven)
		if err != nil {
			continue
		}
		if EstimateScale(v, 10) == k-1 {
			out = append(out, v)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// scaleEstimateNaiveFixup mirrors scaleEstimate but repairs an off-by-one
// estimate the expensive way the paper's Figure 2 does: multiply s by B and
// let the generate loop's entry multiplication run as usual — one extra
// big-number multiplication per conversion (four ×B steps instead of none).
func (st *state) scaleEstimateNaiveFixup(v fpformat.Value) int {
	k := estimateK(v, st.base)
	st.scaleByPow(k)
	if st.tooLow() {
		k++
		st.s = bignat.MulWord(st.s, bignat.Word(st.base))
	}
	st.stepMul()
	return k
}

// convertWith runs a full conversion with the chosen fixup strategy.
func convertWith(v fpformat.Value, naive bool) Result {
	lowOK, highOK := ReaderNearestEven.BoundaryOK(v.MantissaEven())
	st := newState(v, 10, lowOK, highOK)
	var k int
	if naive {
		k = st.scaleEstimateNaiveFixup(v)
	} else {
		k = st.scaleEstimate(v, nil)
	}
	digits, up := st.generate()
	if up {
		digits, k = incrementLast(digits, 10, k)
	}
	return Result{Digits: trimTrailingZeros(digits), K: k, NSig: len(digits)}
}

// TestNaiveFixupMatchesPenaltyFree guards the benchmark's premise: the two
// fixups are interchangeable in output, differing only in cost.
func TestNaiveFixupMatchesPenaltyFree(t *testing.T) {
	for _, v := range corpusValues(3000) {
		a := convertWith(v, false)
		b := convertWith(v, true)
		if a.K != b.K || digitsString(a.Digits) != digitsString(b.Digits) {
			t.Fatalf("fixup strategies disagree: %q K=%d vs %q K=%d",
				digitsString(a.Digits), a.K, digitsString(b.Digits), b.K)
		}
	}
}

// BenchmarkAblationFixupPenaltyFree and ...Naive reproduce DESIGN.md
// Ablation B on exactly the off-by-one population: the paper's claim is
// that "there is no penalty for an estimate that is off by one".
func BenchmarkAblationFixupPenaltyFree(b *testing.B) {
	vals := offByOneValues(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convertWith(vals[i%len(vals)], false)
	}
}

func BenchmarkAblationFixupNaive(b *testing.B) {
	vals := offByOneValues(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		convertWith(vals[i%len(vals)], true)
	}
}

func BenchmarkFreeFormatByBase(b *testing.B) {
	vals := corpusValues(2048)
	for _, base := range []int{2, 10, 16, 36} {
		b.Run(map[int]string{2: "base2", 10: "base10", 16: "base16", 36: "base36"}[base],
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FreeFormat(vals[i%len(vals)], base, ScalingEstimate, ReaderNearestEven); err != nil {
						b.Fatal(err)
					}
				}
			})
	}
}

func BenchmarkFixedFormatPositions(b *testing.B) {
	vals := corpusValues(2048)
	for _, n := range []int{5, 17, 40} {
		b.Run(map[int]string{5: "digits5", 17: "digits17", 40: "digits40"}[n],
			func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := FixedFormatRelative(vals[i%len(vals)], 10, ReaderUnknown, n); err != nil {
						b.Fatal(err)
					}
				}
			})
	}
}

func BenchmarkBasicAlgorithmReference(b *testing.B) {
	// The Section 2 rational-arithmetic specification, for scale: this is
	// what "unacceptably slow for practical use" looks like.
	vals := corpusValues(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BasicFreeFormat(vals[i%len(vals)], 10, ReaderNearestEven); err != nil {
			b.Fatal(err)
		}
	}
}
