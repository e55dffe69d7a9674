package stats

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Raw is a cache-line-padded atomic counter without the Enable gate.
// The gated Counter exists so the conversion hot path costs nothing
// when nobody is looking; the serving layer is the opposite regime —
// its request accounting must always be live, because a /metrics
// scrape that reads zeros during an incident is worse than no metrics
// at all.  The padding keeps adjacent counters in a declaration block
// (or in the Counter array, whose slots are Raw) from false-sharing.
type Raw struct {
	n atomic.Uint64
	_ [56]byte
}

// Inc adds one.
func (c *Raw) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Raw) Add(n uint64) { c.n.Add(n) }

// Load returns the current count.
func (c *Raw) Load() uint64 { return c.n.Load() }

// Histogram is a fixed-bucket cumulative histogram with atomic
// counters, shaped for Prometheus exposition: Observe records a value,
// WriteBuckets emits the classic `_bucket`/`_sum`/`_count` triplet.
// Buckets are upper bounds in ascending order; values above the last
// bound land only in the implicit +Inf bucket.  The zero Histogram is
// unusable — construct with NewHistogram.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus +Inf at the end
	sum    atomic.Uint64   // math.Float64bits-encoded running sum, CAS-updated
}

// NewHistogram builds a histogram over the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v into the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// WriteBuckets emits the histogram's samples — cumulative buckets,
// sum, count — under the given preformatted label set, for families
// declared once with WriteMetricHead and populated per label set
// (the per-route latency histograms).  The le label is appended after
// the caller's labels, matching Prometheus convention.
func (h *Histogram) WriteBuckets(w io.Writer, name, labels string) error {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, formatBound(bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	_, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n%s_sum{%s} %g\n%s_count{%s} %d\n",
		name, labels, cum, name, labels, math.Float64frombits(h.sum.Load()), name, labels, cum)
	return err
}

// formatBound renders a bucket bound the way Prometheus clients
// conventionally do: shortest decimal that round-trips.
func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// WriteCounter emits one counter metric in Prometheus text exposition
// format, shared by the library exposition (floatprint.Stats) and the
// serving layer so both tell one consistent story on a scrape.
func WriteCounter(w io.Writer, name, help string, v uint64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	return err
}

// WriteGauge emits one gauge metric in Prometheus text exposition
// format.
func WriteGauge(w io.Writer, name, help string, v int64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	return err
}

// WriteGaugeFloat is WriteGauge for non-integer quantities (uptime
// seconds, cumulative GC pause seconds).
func WriteGaugeFloat(w io.Writer, name, help string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	return err
}

// WriteMetricHead emits the HELP/TYPE preamble of a labeled metric
// family; the samples follow via WriteSample (counters/gauges) or
// Histogram.WriteBuckets.  Splitting the preamble from the samples is
// what lets one family carry several label sets — the per-route
// request metrics are the canonical user.
func WriteMetricHead(w io.Writer, name, typ, help string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// WriteSample emits one sample of an already-declared metric family
// under a preformatted label set (`route="/v1/shortest"` — the caller
// owns quoting and comma-joining).
func WriteSample(w io.Writer, name, labels string, v uint64) error {
	_, err := fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
	return err
}
