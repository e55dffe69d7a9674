package stats

import (
	"strings"
	"testing"

	"floatprint/internal/trace"
)

func TestTraceAggRecord(t *testing.T) {
	Reset()
	RecordTrace(&trace.Conversion{
		Backend: trace.BackendExactFree, ScaleMethod: "estimate",
		EstimateK: 0, ScaleK: 1, FixupSteps: 1,
		Iterations: 17, Digits: 17, RoundedUp: true,
	})
	RecordTrace(&trace.Conversion{
		Backend: trace.BackendExactFree, ScaleMethod: "estimate",
		EstimateK: 1, ScaleK: 1, FixupSteps: 0,
		Iterations: 3, Digits: 3, TieBreak: true, FastPathMiss: true,
	})
	RecordTrace(&trace.Conversion{Backend: trace.BackendNone}) // special: skipped
	RecordFast(trace.BackendRyu, 7)

	var want Snapshot
	want[TraceConversions], want[TraceEstimates], want[TraceFixups] = 3, 2, 1
	want[TraceIterations], want[TraceDigits], want[TraceRoundUps] = 27, 27, 1
	if s := Read(); s != want {
		t.Fatalf("Read = %+v, want %+v", s, want)
	}
	var wantBackends [trace.NumBackends]uint64
	wantBackends[trace.BackendExactFree] = 2
	wantBackends[trace.BackendRyu] = 1
	if got := loadBackends(); got != wantBackends {
		t.Fatalf("backends = %v, want %v", got, wantBackends)
	}

	Reset()
	if s := Read(); s != (Snapshot{}) {
		t.Fatalf("after Reset: %+v", s)
	}
	if got := loadBackends(); got != ([trace.NumBackends]uint64{}) {
		t.Fatalf("backends after Reset: %v", got)
	}
	if n := digitLen.Count(); n != 0 {
		t.Fatalf("histogram count after Reset = %d", n)
	}
}

func loadBackends() (out [trace.NumBackends]uint64) {
	for i := range backends {
		out[i] = backends[i].Load()
	}
	return out
}

// TestTraceAggWritePrometheus pins the labeled backend-mix and histogram
// exposition byte for byte: scrapes and dashboards depend on these exact
// metric names, label values, and line shapes.
func TestTraceAggWritePrometheus(t *testing.T) {
	Reset()
	RecordFast(trace.BackendRyu, 3)
	RecordFast(trace.BackendRyu, 17)
	RecordTrace(&trace.Conversion{Backend: trace.BackendExactFixed, Iterations: 20, Digits: 20})
	defer Reset()

	var sb strings.Builder
	if err := WriteTracePrometheus(&sb); err != nil {
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
