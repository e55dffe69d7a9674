package stats

import (
	"strings"
	"testing"

	"floatprint/internal/trace"
)

func TestTraceAggRecord(t *testing.T) {
	a := NewTraceAgg()
	a.Record(&trace.Conversion{
		Backend: trace.BackendExactFree, ScaleMethod: "estimate",
		EstimateK: 0, ScaleK: 1, FixupSteps: 1,
		Iterations: 17, Digits: 17, RoundedUp: true,
	})
	a.Record(&trace.Conversion{
		Backend: trace.BackendExactFree, ScaleMethod: "estimate",
		EstimateK: 1, ScaleK: 1, FixupSteps: 0,
		Iterations: 3, Digits: 3, TieBreak: true, FastPathMiss: true,
	})
	a.Record(&trace.Conversion{Backend: trace.BackendNone}) // special: skipped
	a.RecordFast(trace.BackendRyu, 7)

	s := a.Snapshot()
	want := TraceSnapshot{
		Conversions: 3, Estimates: 2, Fixups: 1,
		Iterations: 27, Digits: 27, RoundUps: 1, Ties: 1, FastMisses: 1,
	}
	want.Backends[trace.BackendExactFree] = 2
	want.Backends[trace.BackendRyu] = 1
	if s != want {
		t.Fatalf("Snapshot = %+v, want %+v", s, want)
	}

	a.Reset()
	if s := a.Snapshot(); s != (TraceSnapshot{}) {
		t.Fatalf("after Reset: %+v", s)
	}
	if n := a.digitLen.Count(); n != 0 {
		t.Fatalf("histogram count after Reset = %d", n)
	}
}

// TestTraceAggWritePrometheus pins the labeled backend-mix and histogram
// exposition byte for byte: scrapes and dashboards depend on these exact
// metric names, label values, and line shapes.
func TestTraceAggWritePrometheus(t *testing.T) {
	a := NewTraceAgg()
	a.RecordFast(trace.BackendRyu, 3)
	a.RecordFast(trace.BackendRyu, 17)
	a.Record(&trace.Conversion{Backend: trace.BackendExactFixed, Iterations: 20, Digits: 20})

	var sb strings.Builder
	if err := a.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE floatprint_trace_backend_total counter\n",
		"floatprint_trace_backend_total{backend=\"ryu\"} 2\n",
		"floatprint_trace_backend_total{backend=\"exact-fixed\"} 1\n",
		"# TYPE floatprint_digit_length histogram\n",
		"floatprint_digit_length_bucket{le=\"3\"} 1\n",
		"floatprint_digit_length_bucket{le=\"17\"} 2\n",
		"floatprint_digit_length_bucket{le=\"+Inf\"} 3\n",
		"floatprint_digit_length_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "backend=\"none\"") {
		t.Errorf("exposition should skip the none backend:\n%s", out)
	}
}
