// The interval-I/O experiment: throughput of outward-rounded interval
// printing and enclosure-guaranteed interval reading, the served
// workload behind /v1/interval.  Each corpus value x becomes the
// degenerate interval [x, x] — the hardest case, since both endpoints
// need a one-sided conversion of the same float and any slack in either
// direction shows up as widening — and the verification pass checks the
// enclosure contract end to end.
//
// Both directions are measured twice: under default options, where the
// certified one-sided fast paths (the directed Ryū print kernels and
// the directed Eisel–Lemire parser) serve nearly all traffic, and with
// BackendExact forcing the original big-integer paths — the before/after
// pair the EXPERIMENTS.md table reports.  The verification pass checks
// the two configurations byte-identical in both directions before any
// timing runs.

package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"floatprint"
	"floatprint/interval"
)

// intervalExactOpts forces every endpoint conversion through the exact
// core and reader (the documented fast-path kill switch).
var intervalExactOpts = &floatprint.Options{Backend: floatprint.BackendExact}

// IntervalRow is one configuration of one direction's measurement over
// the corpus.
type IntervalRow struct {
	Name            string
	Elapsed         time.Duration // best of batchRuns passes
	IntervalsPerSec float64
	// FastHits and FastMisses are the directed fast-path attempts during
	// one (untimed) counting pass: per-endpoint directed Ryū hits for the
	// print rows (the one-sided kernels decide every value, so FastMisses
	// stays zero there), directed Eisel–Lemire attempts for the parse
	// rows.  Both stay zero for the forced-exact rows.
	FastHits, FastMisses uint64
}

// IntervalTexts renders every corpus value as degenerate interval text,
// the parse direction's input.
func IntervalTexts(corpus []float64) ([]string, error) {
	texts := make([]string, len(corpus))
	buf := make([]byte, 0, 64)
	for i, x := range corpus {
		var err error
		buf, err = interval.AppendShortest(buf[:0], interval.Interval{Lo: x, Hi: x}, nil)
		if err != nil {
			return nil, fmt.Errorf("interval print %x: %w", x, err)
		}
		texts[i] = string(buf)
	}
	return texts, nil
}

// RunInterval measures interval print and parse throughput over the
// corpus — fast-path and forced-exact configurations of each direction,
// every row the best of batchRuns passes.
func RunInterval(corpus []float64) ([]IntervalRow, error) {
	texts, err := IntervalTexts(corpus)
	if err != nil {
		return nil, err
	}
	printPass := func(opts *floatprint.Options) func() error {
		return func() error {
			buf := make([]byte, 0, 64)
			for _, x := range corpus {
				var err error
				buf, err = interval.AppendShortest(buf[:0], interval.Interval{Lo: x, Hi: x}, opts)
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	parsePass := func(opts *floatprint.Options) func() error {
		return func() error {
			for _, s := range texts {
				if _, err := interval.Parse(s, opts); err != nil {
					return err
				}
			}
			return nil
		}
	}

	rows := make([]IntervalRow, 0, 4)
	for _, cfg := range []struct {
		name  string
		pass  func() error
		print bool // selects which fast-path counters the counting pass reads
		fast  bool
	}{
		{"print (AppendShortest)", printPass(nil), true, true},
		{"print (exact core)", printPass(intervalExactOpts), true, false},
		{"parse (outward read)", parsePass(nil), false, true},
		{"parse (exact reader)", parsePass(intervalExactOpts), false, false},
	} {
		row, err := timeInterval(cfg.name, len(corpus), cfg.pass)
		if err != nil {
			return nil, err
		}
		if cfg.fast {
			row.FastHits, row.FastMisses, err = countDirected(cfg.pass, cfg.print)
			if err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// countDirected runs one untimed pass with telemetry enabled and returns
// the directed fast-path hit/miss delta it produced: the print kernels
// have hits only.  Counting is kept out of the timed passes so the
// throughput numbers never include the per-conversion atomic increments.
func countDirected(pass func() error, print bool) (hits, misses uint64, err error) {
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)
	before := floatprint.Snapshot()
	if err := pass(); err != nil {
		return 0, 0, err
	}
	d := floatprint.Snapshot().Sub(before)
	if print {
		return d.DirectedRyuHits, 0, nil
	}
	return d.DirectedFastHits, d.DirectedFastMisses, nil
}

func timeInterval(name string, n int, pass func() error) (IntervalRow, error) {
	elapsed, err := bestOf(batchRuns, pass)
	if err != nil {
		return IntervalRow{}, fmt.Errorf("%s: %w", name, err)
	}
	best := elapsed[0]
	return IntervalRow{
		Name:            name,
		Elapsed:         best,
		IntervalsPerSec: float64(n) / best.Seconds(),
	}, nil
}

// RenderInterval formats the interval throughput table: time and rate
// per row, the directed fast-path hit rate where one applies, and the
// fast-vs-exact speedup per direction when both rows are present.
func RenderInterval(rows []IntervalRow, values int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "degenerate intervals over %d corpus values (best of %d passes per row)\n",
		values, batchRuns)
	fmt.Fprintf(&sb, "%-28s %12s %14s %10s\n", "Direction", "time", "intervals/s", "fast-hit%")
	rates := map[string]float64{}
	for _, r := range rows {
		hitRate := ""
		if attempts := r.FastHits + r.FastMisses; attempts > 0 {
			hitRate = fmt.Sprintf("%.3f%%", 100*float64(r.FastHits)/float64(attempts))
		}
		fmt.Fprintf(&sb, "%-28s %12s %14.0f %10s\n",
			r.Name, r.Elapsed.Round(time.Microsecond), r.IntervalsPerSec, hitRate)
		rates[r.Name] = r.IntervalsPerSec
	}
	if fast, exact := rates["print (AppendShortest)"], rates["print (exact core)"]; fast > 0 && exact > 0 {
		fmt.Fprintf(&sb, "print speedup (fast vs exact): %.1fx\n", fast/exact)
	}
	if fast, exact := rates["parse (outward read)"], rates["parse (exact reader)"]; fast > 0 && exact > 0 {
		fmt.Fprintf(&sb, "parse speedup (fast vs exact): %.1fx\n", fast/exact)
	}
	return sb.String()
}

// VerifyInterval checks the acceptance invariants behind the table.
// For every corpus value: Parse(print([x, x])) encloses [x, x] and
// widens by at most one ulp per endpoint; the fast-path and forced-exact
// configurations print byte-identical text; and both parse that text to
// bit-identical endpoints.
func VerifyInterval(corpus []float64) error {
	buf := make([]byte, 0, 64)
	exactBuf := make([]byte, 0, 64)
	for _, x := range corpus {
		iv := interval.Interval{Lo: x, Hi: x}
		var err error
		buf, err = interval.AppendShortest(buf[:0], iv, nil)
		if err != nil {
			return err
		}
		exactBuf, err = interval.AppendShortest(exactBuf[:0], iv, intervalExactOpts)
		if err != nil {
			return err
		}
		if string(buf) != string(exactBuf) {
			return fmt.Errorf("print divergence for x=%x: fast %q, exact %q", x, buf, exactBuf)
		}
		got, err := interval.Parse(string(buf), nil)
		if err != nil {
			return fmt.Errorf("interval parse %q: %w", buf, err)
		}
		exactGot, err := interval.Parse(string(buf), intervalExactOpts)
		if err != nil {
			return fmt.Errorf("exact interval parse %q: %w", buf, err)
		}
		if math.Float64bits(got.Lo) != math.Float64bits(exactGot.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(exactGot.Hi) {
			return fmt.Errorf("parse divergence for %q: fast [%x,%x], exact [%x,%x]",
				buf, got.Lo, got.Hi, exactGot.Lo, exactGot.Hi)
		}
		if !got.Encloses(iv) {
			return fmt.Errorf("enclosure violated: Parse(%q) = [%x,%x] for x=%x", buf, got.Lo, got.Hi, x)
		}
		if (got.Lo != x && math.Nextafter(got.Lo, math.Inf(1)) != x) ||
			(got.Hi != x && math.Nextafter(got.Hi, math.Inf(-1)) != x) {
			return fmt.Errorf("widened beyond one ulp: Parse(%q) = [%x,%x] for x=%x", buf, got.Lo, got.Hi, x)
		}
	}
	return nil
}
