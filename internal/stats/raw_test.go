package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestRawIgnoresGate(t *testing.T) {
	prev := Enable(false)
	defer Enable(prev)

	var c Raw
	c.Inc()
	c.Add(9)
	if got := c.Load(); got != 10 {
		t.Fatalf("Raw counter = %d with gate off, want 10", got)
	}
}

func TestRawConcurrent(t *testing.T) {
	var c Raw
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*each {
		t.Fatalf("Raw = %d, want %d", got, workers*each)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	for _, v := range []float64{0.0005, 0.005, 0.005, 0.05, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	var sb strings.Builder
	if err := h.WriteBuckets(&sb, "x_seconds", `route="/x"`); err != nil {
		t.Fatal(err)
	}
	want := `x_seconds_bucket{route="/x",le="0.001"} 1
x_seconds_bucket{route="/x",le="0.01"} 3
x_seconds_bucket{route="/x",le="0.1"} 4
x_seconds_bucket{route="/x",le="+Inf"} 5
x_seconds_sum{route="/x"} 5.0605
x_seconds_count{route="/x"} 5
`
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(1, 10)
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*each {
		t.Fatalf("Count = %d, want %d", got, workers*each)
	}
}

// TestLabeledFamilyExposition pins the split-family format: one
// HELP/TYPE head, then labeled samples — counters via WriteSample,
// histograms via WriteBuckets with the le label appended after the
// caller's labels.
func TestLabeledFamilyExposition(t *testing.T) {
	var sb strings.Builder
	if err := WriteMetricHead(&sb, "r_total", "counter", "requests by route."); err != nil {
		t.Fatal(err)
	}
	if err := WriteSample(&sb, "r_total", `route="/a"`, 3); err != nil {
		t.Fatal(err)
	}
	if err := WriteSample(&sb, "r_total", `route="/b",class="4xx"`, 0); err != nil {
		t.Fatal(err)
	}

	h := NewHistogram(0.001, 0.01)
	h.Observe(0.0005)
	h.Observe(0.5)
	if err := WriteMetricHead(&sb, "r_seconds", "histogram", "latency by route."); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteBuckets(&sb, "r_seconds", `route="/a"`); err != nil {
		t.Fatal(err)
	}

	if err := WriteGaugeFloat(&sb, "up_seconds", "uptime.", 1.5); err != nil {
		t.Fatal(err)
	}

	want := `# HELP r_total requests by route.
# TYPE r_total counter
r_total{route="/a"} 3
r_total{route="/b",class="4xx"} 0
# HELP r_seconds latency by route.
# TYPE r_seconds histogram
r_seconds_bucket{route="/a",le="0.001"} 1
r_seconds_bucket{route="/a",le="0.01"} 1
r_seconds_bucket{route="/a",le="+Inf"} 2
r_seconds_sum{route="/a"} 0.5005
r_seconds_count{route="/a"} 2
# HELP up_seconds uptime.
# TYPE up_seconds gauge
up_seconds 1.5
`
	if sb.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWriteCounterAndGauge(t *testing.T) {
	var sb strings.Builder
	if err := WriteCounter(&sb, "a_total", "a help", 7); err != nil {
		t.Fatal(err)
	}
	if err := WriteGauge(&sb, "b", "b help", -3); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total a help
# TYPE a_total counter
a_total 7
# HELP b b help
# TYPE b gauge
b -3
`
	if sb.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", sb.String(), want)
	}
}
