package stats

import (
	"io"

	"floatprint/internal/trace"
)

// The trace aggregate folds per-conversion execution records
// (internal/trace.Conversion) into the Trace* counters, a per-backend
// mix, and a digit-length histogram, so the paper's behavioral claims —
// fixup rate of the §3.2 estimator, §2 minimal digit counts, the
// fast-path/exact backend mix — become continuously measured quantities
// that /metrics and fpbench -stats can report.
//
// RecordTrace and RecordFast are safe for concurrent use from any number
// of conversion goroutines; every fold is an uncontended atomic on its
// own cache line.  The gate lives at the caller (the floatprint dispatch
// layer only builds a trace when collection is enabled), so the folds
// themselves are unconditional.
var (
	backends [trace.NumBackends]Raw
	digitLen = NewHistogram(digitLenBounds...)
)

// digitLenBounds covers every binary64 shortest form (1..17 significant
// digits); longer fixed-format outputs land in +Inf.
var digitLenBounds = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

// RecordTrace folds one conversion record.  Specials (BackendNone) never
// reached digit generation and are skipped.
func RecordTrace(c *trace.Conversion) {
	if c.Backend == trace.BackendNone {
		return
	}
	counters[TraceConversions].Inc()
	backends[c.Backend].Inc()
	counters[TraceIterations].Add(uint64(c.Iterations))
	counters[TraceDigits].Add(uint64(c.Digits))
	digitLen.Observe(float64(c.Digits))
	if c.RoundedUp {
		counters[TraceRoundUps].Inc()
	}
	if (c.Backend == trace.BackendExactFree || c.Backend == trace.BackendExactFixed) &&
		c.ScaleMethod == "estimate" {
		counters[TraceEstimates].Inc()
		if c.FixupSteps > 0 {
			counters[TraceFixups].Inc()
		}
	}
}

// RecordFast folds a certified fast-path conversion without building a
// full record: the fast paths have no Table-1 state or scale estimate, so
// backend, digit count, and loop iterations (counted as the digits) are
// the whole story.
func RecordFast(b trace.Backend, digits int) {
	counters[TraceConversions].Inc()
	backends[b].Inc()
	counters[TraceIterations].Add(uint64(digits))
	counters[TraceDigits].Add(uint64(digits))
	digitLen.Observe(float64(digits))
}

// WriteTracePrometheus emits the aggregate's labeled backend mix and the
// digit-length histogram in Prometheus text exposition format.  The
// Trace* counters travel through the public floatprint.Stats snapshot
// instead, so one scrape never reports the same number twice.
func WriteTracePrometheus(w io.Writer) error {
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
			backends[i].Load()); err != nil {
			return err
		}
	}
	return digitLen.WritePrometheus(w, "floatprint_digit_length",
		"Significant digits per conversion (the paper's Section 5 statistic).")
}
