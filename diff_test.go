package floatprint

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"floatprint/internal/core"
	"floatprint/internal/fastpath"
	"floatprint/internal/fpformat"
)

var readerModes = []core.ReaderMode{
	core.ReaderUnknown,
	core.ReaderNearestEven,
	core.ReaderNearestAway,
	core.ReaderNearestTowardZero,
}

// randomFinite draws a positive finite float64 from uniformly random bit
// patterns, covering normals and denormals across the full exponent range.
func randomFinite(rng *rand.Rand) float64 {
	for {
		v := math.Float64frombits(rng.Uint64())
		v = math.Abs(v)
		if v != 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			return v
		}
	}
}

// Gay's fixed-format fast path claims mode-independence: a certified
// TryFixed result must match the exact algorithm under every reader mode
// (certified results are strictly inside every boundary, where the modes
// differ).
func TestGayFixedMatchesExactAllReaderModes(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(43))
	certified := 0
	for i := 0; i < n; i++ {
		v := randomFinite(rng)
		digitCount := 1 + rng.Intn(17)
		digits, k, ok := fastpath.TryFixed(v, digitCount)
		if !ok {
			continue
		}
		certified++
		val := fpformat.DecodeFloat64(v)
		for _, mode := range readerModes {
			res, err := core.FixedFormatRelative(val, 10, mode, digitCount)
			if err != nil {
				t.Fatalf("FixedFormatRelative(%g, %v, %d): %v", v, mode, digitCount, err)
			}
			if res.K != k || !bytes.Equal(res.Digits, digits) || res.NSig != digitCount {
				t.Fatalf("fastpath(%b, n=%d) = %v ×10^%d, exact under %v = %v ×10^%d (nsig %d)",
					v, digitCount, digits, k, mode, res.Digits, res.K, res.NSig)
			}
		}
	}
	if certified < n/4 {
		t.Errorf("only %d/%d fixed conversions certified; fast path effectively disabled", certified, n)
	}
}

// TestConcurrentConversionsRace is the correctness twin of the parallel
// benchmarks: many goroutines hammer the shortest and fixed paths — and
// bases whose power caches were not preloaded, forcing concurrent
// copy-on-grow — while verifying every result.  Run it under -race (the CI
// workflow does) to certify the lock-free power cache and the pooled
// conversion state.
func TestConcurrentConversionsRace(t *testing.T) {
	workers := 8
	perWorker := 400
	if testing.Short() {
		perWorker = 80
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 0, 64)
			for i := 0; i < perWorker; i++ {
				v := randomFinite(rng)
				// Zero-alloc append path against strconv's reader.
				buf = AppendShortest(buf[:0], v)
				if got, err := strconv.ParseFloat(string(buf), 64); err != nil || got != v {
					t.Errorf("AppendShortest(%b) = %q does not read back (%v)", v, buf, err)
					return
				}
				// Exact path in an odd base: base 3 was never preloaded, so
				// this grows its power cache concurrently (copy-on-grow).
				d, err := ShortestDigits(v, &Options{Base: 3})
				if err != nil {
					t.Errorf("ShortestDigits(%b, base 3): %v", v, err)
					return
				}
				if rt, err := d.Value(); err != nil || rt != v {
					t.Errorf("base-3 round trip of %b failed: got %v (%v)", v, rt, err)
					return
				}
				// Fixed format through the public API.
				if _, err := FixedDigits(v, 1+rng.Intn(20), nil); err != nil {
					t.Errorf("FixedDigits(%b): %v", v, err)
					return
				}
			}
		}(int64(1000 + w))
	}
	wg.Wait()
}
