package floatprint

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestTracingNeverPerturbsOutput is the tracing subsystem's acceptance
// invariant: across a large corpus, every base and reader mode, the
// traced conversion is byte-identical to the untraced one — with
// telemetry collection both off and on.  Tracing observes the algorithm;
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

// TestConcurrentTracedConversions is the -race twin for tracing and
// telemetry: many goroutines convert with per-goroutine Trace records
// while collection is enabled, interleaved with snapshot reads.  The
// counters must come out exactly as the same calls made sequentially
// without records leave them.  Runs under the CI race step (go test
// -race .).
func TestConcurrentTracedConversions(t *testing.T) {
	floats, _ := benchCorpus()
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)

	const workers = 8
	const perWorker = 2000
	convert := func(off int, tr *Trace) error {
		for i := 0; i < perWorker; i++ {
			v := floats[(off+i)%len(floats)]
			if _, err := ShortestDigitsTraced(v, nil, tr); err != nil {
				return err
			}
			if i%5 == 0 {
				if _, err := FixedDigitsTraced(v, 9, nil, tr); err != nil {
					return err
				}
			}
			if i%100 == 0 {
				_ = Snapshot() // concurrent reads of the counters
			}
		}
		return nil
	}

	ResetStats()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			if err := convert(off, new(Trace)); err != nil {
				t.Error(err)
			}
		}(w * 251)
	}
	wg.Wait()
	concurrent := Snapshot()

	ResetStats()
	for w := 0; w < workers; w++ {
		if err := convert(w*251, nil); err != nil {
			t.Fatal(err)
		}
	}
	if sequential := Snapshot(); concurrent != sequential {
		t.Errorf("concurrent traced counters:\n%v\nsequential untraced:\n%v", concurrent, sequential)
	}
	if concurrent.TraceEstimates == 0 || concurrent.RyuHits == 0 {
		t.Errorf("workload reached neither the kernel nor the exact core: %+v", concurrent)
	}
}
