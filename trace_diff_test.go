package floatprint

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestTracingNeverPerturbsOutput is the tracing subsystem's acceptance
// invariant: across a large corpus, every base and reader mode, the
// traced conversion is byte-identical to the untraced one — with the
// aggregate recorder both off and on.  Tracing observes the algorithm;
// it must never steer it.
func TestTracingNeverPerturbsOutput(t *testing.T) {
	floats, _ := benchCorpus()
	corpus := floats[:3000]
	modes := []ReaderRounding{
		ReaderNearestEven, ReaderUnknown, ReaderNearestAway, ReaderNearestTowardZero,
	}
	bases := []int{2, 8, 10, 16, 36}

	prev := SetStatsEnabled(false)
	defer SetStatsEnabled(prev)

	check := func(t *testing.T, label string, plain, traced Digits, perr, terr error) {
		t.Helper()
		if (perr == nil) != (terr == nil) {
			t.Fatalf("%s: error mismatch: untraced %v, traced %v", label, perr, terr)
		}
		if perr != nil {
			return
		}
		ps, ts := plain.String(), traced.String()
		if ps != ts {
			t.Fatalf("%s: untraced %q != traced %q", label, ps, ts)
		}
	}

	run := func(t *testing.T) {
		var tr Trace
		for _, base := range bases {
			for _, mode := range modes {
				opts := &Options{Base: base, Reader: mode}
				for i, v := range corpus {
					label := fmt.Sprintf("v=%x base=%d mode=%d", v, base, mode)
					p, perr := ShortestDigits(v, opts)
					q, qerr := ShortestDigitsTraced(v, opts, &tr)
					check(t, "shortest "+label, p, q, perr, qerr)
					if i%7 == 0 { // fixed formats on a slice: they are ~10x slower
						p, perr = FixedDigits(v, 12, opts)
						q, qerr = FixedDigitsTraced(v, 12, opts, &tr)
						check(t, "fixed "+label, p, q, perr, qerr)
						p, perr = FixedPositionDigits(v, -3, opts)
						q, qerr = FixedPositionDigitsTraced(v, -3, opts, &tr)
						check(t, "fixedpos "+label, p, q, perr, qerr)
					}
				}
			}
		}
	}

	t.Run("collection-off", run)

	SetStatsEnabled(true)
	t.Run("collection-on", run)
}

// TestTracedSpecials: specials never reach digit generation; the trace
// must say so (backend none) for every entry point, and the outputs must
// match the untraced ones.
func TestTracedSpecials(t *testing.T) {
	var tr Trace
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		tr.Backend = TraceBackendRyu // stale garbage the reset must clear
		d, err := ShortestDigitsTraced(v, nil, &tr)
		if err != nil {
			t.Fatal(err)
		}
		u, _ := ShortestDigits(v, nil)
		if d.String() != u.String() {
			t.Errorf("special %v: traced %q != untraced %q", v, d.String(), u.String())
		}
		if tr.Backend != TraceBackendNone || tr.Iterations != 0 {
			t.Errorf("special %v: trace = %+v, want reset with backend none", v, tr)
		}
	}
}

// TestConcurrentTracedConversions is the -race twin for the trace
// recorder: many goroutines convert with per-goroutine Trace records
// while the shared aggregate recorder is enabled, interleaved with
// snapshot reads.  Runs under the CI race step (go test -race .).
func TestConcurrentTracedConversions(t *testing.T) {
	floats, _ := benchCorpus()
	ResetStats()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			var tr Trace
			for i := 0; i < perWorker; i++ {
				v := floats[(off+i)%len(floats)]
				if _, err := ShortestDigitsTraced(v, nil, &tr); err != nil {
					t.Error(err)
					return
				}
				if i%5 == 0 {
					if _, err := FixedDigits(v, 9, nil); err != nil {
						t.Error(err)
						return
					}
				}
				if i%100 == 0 {
					_ = Snapshot() // concurrent reads of the aggregate
				}
			}
		}(w * 251)
	}
	wg.Wait()

	// The untraced public calls (FixedDigits) fold into the aggregate;
	// the explicitly traced ones do not (the caller owns the record).
	s := Snapshot()
	wantFixed := uint64(workers * perWorker / 5)
	if s.TraceConversions != wantFixed {
		t.Errorf("TraceConversions = %d, want %d (one per untraced FixedDigits)",
			s.TraceConversions, wantFixed)
	}
}
