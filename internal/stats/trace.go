package stats

import (
	"io"

	"floatprint/internal/trace"
)

// TraceAgg is the shared aggregate recorder for conversion traces: it
// folds per-conversion execution records (internal/trace.Conversion) into
// cache-line-padded atomic counters and a digit-length histogram, so the
// paper's behavioral claims — fixup rate of the §3.2 estimator, §2 minimal
// digit counts, the fast-path/exact backend mix — become continuously
// measured quantities that /metrics and fpbench -stats can report.
//
// Record is safe for concurrent use from any number of conversion
// goroutines; every fold is an uncontended atomic on its own cache line.
// The gate lives at the caller (the floatprint dispatch layer only builds
// a trace when collection is enabled), so Record itself is unconditional.
type TraceAgg struct {
	conversions Raw // records folded (specials excluded)
	estimates   Raw // exact conversions that ran the §3.2 estimator
	fixups      Raw // estimator one too low: penalty-free fixup fired
	iterations  Raw // summed generate-loop iterations
	digits      Raw // summed significant output digits
	roundUps    Raw // conversions whose final digit was incremented
	ties        Raw // both termination conditions held (closest-candidate tie-break)
	fastMisses  Raw // fast path attempted, fell back to exact
	backends    [trace.NumBackends]Raw
	digitLen    *Histogram
}

// digitLenBounds covers every binary64 shortest form (1..17 significant
// digits); longer fixed-format outputs land in +Inf.
var digitLenBounds = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

// NewTraceAgg returns an empty aggregate.
func NewTraceAgg() *TraceAgg {
	return &TraceAgg{digitLen: NewHistogram(digitLenBounds...)}
}

// Traces is the process-global aggregate fed by the floatprint dispatch
// layer whenever collection is enabled (Enable).  Reset clears it along
// with the plain counters.
var Traces = NewTraceAgg()

// Record folds one conversion record.  Specials (BackendNone) never
// reached digit generation and are skipped.
func (a *TraceAgg) Record(c *trace.Conversion) {
	if c.Backend == trace.BackendNone {
		return
	}
	a.conversions.Inc()
	a.backends[c.Backend].Inc()
	a.iterations.Add(uint64(c.Iterations))
	a.digits.Add(uint64(c.Digits))
	a.digitLen.Observe(float64(c.Digits))
	if c.RoundedUp {
		a.roundUps.Inc()
	}
	if c.TieBreak {
		a.ties.Inc()
	}
	if c.FastPathMiss {
		a.fastMisses.Inc()
	}
	if (c.Backend == trace.BackendExactFree || c.Backend == trace.BackendExactFixed) &&
		c.ScaleMethod == "estimate" {
		a.estimates.Inc()
		if c.FixupSteps > 0 {
			a.fixups.Inc()
		}
	}
}

// RecordFast folds a certified fast-path conversion without building a
// full record: the fast paths have no Table-1 state or scale estimate, so
// backend, digit count, and loop iterations (counted as the digits) are
// the whole story.
func (a *TraceAgg) RecordFast(b trace.Backend, digits int) {
	a.conversions.Inc()
	a.backends[b].Inc()
	a.iterations.Add(uint64(digits))
	a.digits.Add(uint64(digits))
	a.digitLen.Observe(float64(digits))
}

// TraceSnapshot is an atomic-per-field copy of the aggregate's scalar
// counters (the digit-length histogram is exposed via WritePrometheus).
type TraceSnapshot struct {
	Conversions uint64
	Estimates   uint64
	Fixups      uint64
	Iterations  uint64
	Digits      uint64
	RoundUps    uint64
	Ties        uint64
	FastMisses  uint64
	Backends    [trace.NumBackends]uint64
}

// Snapshot copies the scalar counters.
func (a *TraceAgg) Snapshot() TraceSnapshot {
	s := TraceSnapshot{
		Conversions: a.conversions.Load(),
		Estimates:   a.estimates.Load(),
		Fixups:      a.fixups.Load(),
		Iterations:  a.iterations.Load(),
		Digits:      a.digits.Load(),
		RoundUps:    a.roundUps.Load(),
		Ties:        a.ties.Load(),
		FastMisses:  a.fastMisses.Load(),
	}
	for i := range s.Backends {
		s.Backends[i] = a.backends[i].Load()
	}
	return s
}

// Reset zeroes the aggregate, histogram included.
func (a *TraceAgg) Reset() {
	for _, r := range []*Raw{
		&a.conversions, &a.estimates, &a.fixups, &a.iterations,
		&a.digits, &a.roundUps, &a.ties, &a.fastMisses,
	} {
		r.n.Store(0)
	}
	for i := range a.backends {
		a.backends[i].n.Store(0)
	}
	a.digitLen.reset()
}

// WritePrometheus emits the aggregate's labeled backend mix and the
// digit-length histogram in Prometheus text exposition format.  The
// scalar counters travel through the public floatprint.Stats snapshot
// instead, so one scrape never reports the same number twice.
func (a *TraceAgg) WritePrometheus(w io.Writer) error {
	if _, err := io.WriteString(w,
		"# HELP floatprint_trace_backend_total Conversions by deciding backend.\n"+
			"# TYPE floatprint_trace_backend_total counter\n"); err != nil {
		return err
	}
	for i := 0; i < trace.NumBackends; i++ {
		b := trace.Backend(i)
		if b == trace.BackendNone {
			continue
		}
		if err := writeLabeled(w, "floatprint_trace_backend_total", "backend", b.String(),
			a.backends[i].Load()); err != nil {
			return err
		}
	}
	return a.digitLen.WritePrometheus(w, "floatprint_digit_length",
		"Significant digits per conversion (the paper's Section 5 statistic).")
}
