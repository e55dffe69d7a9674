// Package harness drives the paper's experiments (Tables 2 and 3 and the
// §5 digit-count statistic) over the Schryer corpus, shared by the
// fpbench command and the repository's benchmark suite.  It measures
// wall-clock conversion time exactly as the paper does — digits are
// generated and discarded, so I/O never enters the measurement ("the
// numbers were printed to /dev/null in order to factor out I/O
// performance").
package harness

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"floatprint"
	"floatprint/batch"
	"floatprint/internal/baseline"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/gay"
	"floatprint/internal/grisu"
	"floatprint/internal/ryu"
)

// Table2Row is one scaling algorithm's measurement.
type Table2Row struct {
	Name     string
	Scaling  core.Scaling
	Elapsed  time.Duration
	Relative float64 // CPU time relative to the fast estimator
	// MeanScaleOps is the mean number of high-precision integer operations
	// the scaling phase performs per conversion — the asymptotic quantity
	// behind the paper's two-orders-of-magnitude gap (O(|log v|) vs O(1)).
	MeanScaleOps float64
	// RelativeOps is MeanScaleOps relative to the fast estimator.
	RelativeOps float64
}

// RunTable2 reproduces Table 2: relative CPU time of the three scaling
// algorithms converting the corpus to shortest base-10 form, each timed
// as the best of table2Runs passes, plus the operation-count view of the
// same comparison.
func RunTable2(corpus []float64) ([]Table2Row, error) {
	rows := []Table2Row{
		{Name: "Steele & White iterative", Scaling: core.ScalingIterative},
		{Name: "Floating-point logarithm", Scaling: core.ScalingFloatLog},
		{Name: "Our estimate (fixup)", Scaling: core.ScalingEstimate},
	}
	values := decode(corpus)
	passes := make([]func() error, len(rows))
	for i := range rows {
		scaling := rows[i].Scaling
		passes[i] = func() error {
			for _, v := range values {
				if _, err := core.FreeFormat(v, 10, scaling, core.ReaderNearestEven); err != nil {
					return err
				}
			}
			return nil
		}
	}
	elapsed, err := bestOf(table2Runs, passes...)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Elapsed = elapsed[i]

		// Operation counts on a stride sample (they are exact per value,
		// so a sample suffices and keeps the harness fast).
		totalOps, counted := 0, 0
		stride := max(1, len(values)/20000)
		for j := 0; j < len(values); j += stride {
			_, ops, err := core.ScaleOps(values[j], 10, rows[i].Scaling, core.ReaderNearestEven)
			if err != nil {
				return nil, err
			}
			totalOps += ops
			counted++
		}
		rows[i].MeanScaleOps = float64(totalOps) / float64(counted)
	}
	base := rows[2].Elapsed.Seconds()
	baseOps := rows[2].MeanScaleOps
	for i := range rows {
		rows[i].Relative = rows[i].Elapsed.Seconds() / base
		rows[i].RelativeOps = rows[i].MeanScaleOps / baseOps
	}
	return rows, nil
}

// RenderTable2 formats rows the way the paper prints Table 2, with the
// operation-count column alongside.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %12s %10s %12s %10s\n",
		"Scaling Algorithm", "Time", "Relative", "Scale ops", "Rel. ops")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %12s %9.2fx %12.1f %9.1fx\n",
			r.Name, r.Elapsed.Round(time.Millisecond), r.Relative, r.MeanScaleOps, r.RelativeOps)
	}
	return sb.String()
}

// Table3Result aggregates the Table 3 measurements: free-format versus the
// straightforward 17-digit fixed-format algorithm, fixed-format versus the
// simulated printf, the printf mis-rounding count, and the paper's §5
// average-digit statistic.
type Table3Result struct {
	Corpus        int
	Free          time.Duration
	Fixed17       time.Duration
	Printf        time.Duration
	FreeVsFixed   float64 // paper geometric mean: 1.66
	FixedVsPrintf float64 // paper geometric mean: 1.51
	Incorrect     int     // paper: 0 .. 6280 depending on the system
	MeanDigits    float64 // paper: 15.2
}

// RunTable3 reproduces Table 3 on the given corpus, timing each column
// as the best of table2Runs interleaved passes, as RunTable2 does.
func RunTable3(corpus []float64) (Table3Result, error) {
	values := decode(corpus)
	res := Table3Result{Corpus: len(corpus)}

	totalDigits := 0
	elapsed, err := bestOf(table2Runs,
		func() error {
			totalDigits = 0
			for _, v := range values {
				r, err := core.FreeFormat(v, 10, core.ScalingEstimate, core.ReaderNearestEven)
				if err != nil {
					return err
				}
				totalDigits += len(r.Digits)
			}
			return nil
		},
		func() error {
			for _, v := range values {
				if _, err := baseline.FixedDigits(v, 10, 17); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for _, f := range corpus {
				baseline.NaivePrintf(f, 17)
			}
			return nil
		})
	if err != nil {
		return res, err
	}
	res.Free, res.Fixed17, res.Printf = elapsed[0], elapsed[1], elapsed[2]
	res.MeanDigits = float64(totalDigits) / float64(len(values))

	// Count printf mis-roundings against the exact fixed-format digits.
	for i, f := range corpus {
		nd, nk := baseline.NaivePrintf(f, 17)
		exact, err := baseline.FixedDigits(values[i], 10, 17)
		if err != nil {
			return res, err
		}
		if nk != exact.K || !bytesEqual(nd, exact.Digits) {
			res.Incorrect++
		}
	}

	res.FreeVsFixed = res.Free.Seconds() / res.Fixed17.Seconds()
	res.FixedVsPrintf = res.Fixed17.Seconds() / res.Printf.Seconds()
	return res, nil
}

// RenderTable3 formats the result in the shape of the paper's Table 3.
func RenderTable3(r Table3Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "corpus size: %d values\n", r.Corpus)
	fmt.Fprintf(&sb, "%-34s %12s\n", "Conversion", "Time")
	fmt.Fprintf(&sb, "%-34s %12s\n", "free format (shortest)", r.Free.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-34s %12s\n", "fixed format (17 digits)", r.Fixed17.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-34s %12s\n", "simulated printf (17 digits)", r.Printf.Round(time.Millisecond))
	fmt.Fprintf(&sb, "free/fixed ratio:    %6.2f   (paper geometric mean: 1.66)\n", r.FreeVsFixed)
	fmt.Fprintf(&sb, "fixed/printf ratio:  %6.2f   (paper geometric mean: 1.51)\n", r.FixedVsPrintf)
	fmt.Fprintf(&sb, "printf incorrect:    %6d   (paper: 0..6280 of 250680 by system)\n", r.Incorrect)
	fmt.Fprintf(&sb, "mean shortest digits: %5.2f  (paper: 15.2)\n", r.MeanDigits)
	return sb.String()
}

// EstimatorStats tallies how often a scale estimator hits the exact k.
type EstimatorStats struct {
	Name            string
	Exact, Low, Off int // exact, one short (free fixup), anything else
}

// RunEstimatorAblation compares the paper's estimator with Gay's and with
// the floating-point logarithm over the corpus (DESIGN.md Ablation A).
// The true k is taken from the conversion result itself.
func RunEstimatorAblation(corpus []float64) []EstimatorStats {
	stats := []EstimatorStats{
		{Name: "Burger-Dybvig 2-flop"},
		{Name: "Gay 5-flop Taylor"},
	}
	for _, f := range corpus {
		v := fpformat.DecodeFloat64(f)
		trueK, err := core.ExactScale(v, 10, core.ReaderNearestEven)
		if err != nil {
			continue
		}
		tally(&stats[0], core.EstimateScale(v, 10), trueK)
		tally(&stats[1], gay.EstimateCeilLog10(f), trueK)
	}
	return stats
}

func tally(s *EstimatorStats, est, trueK int) {
	switch est - trueK {
	case 0:
		s.Exact++
	case -1:
		s.Low++
	default:
		s.Off++
	}
}

// RenderEstimatorStats formats ablation results.
func RenderEstimatorStats(stats []EstimatorStats, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %10s %10s %10s\n", "Estimator", "exact", "off-by-1", "other")
	for _, s := range stats {
		fmt.Fprintf(&sb, "%-24s %9.2f%% %9.2f%% %9.2f%%\n", s.Name,
			pct(s.Exact, n), pct(s.Low, n), pct(s.Off, n))
	}
	return sb.String()
}

func pct(x, n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(x) / float64(n)
}

func decode(corpus []float64) []fpformat.Value {
	values := make([]fpformat.Value, len(corpus))
	for i, f := range corpus {
		values[i] = fpformat.DecodeFloat64(f)
	}
	return values
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SuccessorRow is one algorithm generation's measurement in the
// follow-on-work comparison.
type SuccessorRow struct {
	Name      string
	Elapsed   time.Duration
	Relative  float64 // vs the paper's exact algorithm
	Fallbacks int     // Grisu-only: certification failures
}

// RunSuccessors compares three generations of shortest-form printing on
// the corpus: the paper's exact algorithm (1996), Grisu3 with exact
// fallback (2010), and Ryū (2018), which decides every value, plus Go's
// strconv for reference.
func RunSuccessors(corpus []float64) ([]SuccessorRow, error) {
	values := decode(corpus)
	rows := make([]SuccessorRow, 0, 4)

	start := time.Now()
	for _, v := range values {
		if _, err := core.FreeFormat(v, 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
			return nil, err
		}
	}
	rows = append(rows, SuccessorRow{Name: "Burger-Dybvig exact (1996)", Elapsed: time.Since(start)})

	start = time.Now()
	fallbacks := 0
	for i, f := range corpus {
		if _, _, ok := grisu.Shortest(f); !ok {
			fallbacks++
			if _, err := core.FreeFormat(values[i], 10, core.ScalingEstimate, core.ReaderNearestEven); err != nil {
				return nil, err
			}
		}
	}
	rows = append(rows, SuccessorRow{Name: "Grisu3 + exact fallback (2010)", Elapsed: time.Since(start), Fallbacks: fallbacks})

	start = time.Now()
	var ryuBuf [ryu.BufLen]byte
	for _, f := range corpus {
		ryu.ShortestInto(ryuBuf[:], f)
	}
	rows = append(rows, SuccessorRow{Name: "Ryu (2018)", Elapsed: time.Since(start)})

	start = time.Now()
	for _, f := range corpus {
		strconv.FormatFloat(f, 'e', -1, 64)
	}
	rows = append(rows, SuccessorRow{Name: "Go strconv (reference)", Elapsed: time.Since(start)})

	base := rows[0].Elapsed.Seconds()
	for i := range rows {
		rows[i].Relative = rows[i].Elapsed.Seconds() / base
	}
	return rows, nil
}

// BatchRow is one shard-count measurement of the batch engine's corpus
// throughput.
type BatchRow struct {
	Shards       int
	Elapsed      time.Duration // best of batchRuns passes
	ValuesPerSec float64
	MBPerSec     float64 // output bytes per second
	Speedup      float64 // vs the first row
}

// batchRuns is how many times each configuration converts the corpus;
// the fastest pass is reported (standard practice for throughput
// numbers, since stray scheduling noise only ever slows a run down).
const batchRuns = 3

// table2Runs is batchRuns for the Table 2 and Table 3 rows.  The
// estimator's pass over a few thousand values takes ~15 ms, short enough
// that on a noisy host three of them can all land in a slow spell and
// shrink the iterative/estimator ratio by a third.
const table2Runs = 5

// bestOf runs each pass the given number of times and returns each
// one's fastest wall time, or the first error.  The runs are
// interleaved, one of each pass per round, and each round starts one
// pass later than the one before, so a stretch of host load, a slow
// spell of the machine, or the scheduler holding the process back after
// a long pass hits every pass alike instead of skewing their ratios.
func bestOf(runs int, passes ...func() error) ([]time.Duration, error) {
	best := make([]time.Duration, len(passes))
	for run := 0; run < runs; run++ {
		for k := range passes {
			i := (run + k) % len(passes)
			start := time.Now()
			if err := passes[i](); err != nil {
				return nil, err
			}
			if elapsed := time.Since(start); best[i] == 0 || elapsed < best[i] {
				best[i] = elapsed
			}
		}
	}
	return best, nil
}

// RunBatch measures batch-engine corpus throughput for each shard
// count, in the spirit of the paper's Table 2/3 timing methodology
// (convert the whole corpus, discard the output, report wall time).
func RunBatch(corpus []float64, shardCounts []int) ([]BatchRow, error) {
	rows := make([]BatchRow, 0, len(shardCounts))
	for _, shards := range shardCounts {
		p := batch.New(batch.Config{Shards: shards})
		var bytesOut int
		elapsed, err := bestOf(batchRuns, func() error {
			res, err := p.Convert(context.Background(), corpus)
			if err != nil {
				return err
			}
			bytesOut = len(res.Buf)
			return nil
		})
		if err != nil {
			return nil, err
		}
		best := elapsed[0]
		rows = append(rows, BatchRow{
			Shards:       shards,
			Elapsed:      best,
			ValuesPerSec: float64(len(corpus)) / best.Seconds(),
			MBPerSec:     float64(bytesOut) / 1e6 / best.Seconds(),
		})
	}
	if len(rows) > 0 {
		base := rows[0].ValuesPerSec
		for i := range rows {
			rows[i].Speedup = rows[i].ValuesPerSec / base
		}
	}
	return rows, nil
}

// RenderBatch formats the batch throughput rows.
func RenderBatch(rows []BatchRow, corpus int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "corpus size: %d values (best of %d passes per row)\n", corpus, batchRuns)
	fmt.Fprintf(&sb, "%8s %12s %14s %10s %9s\n", "shards", "time", "values/s", "MB/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d %12s %14.0f %10.1f %8.2fx\n",
			r.Shards, r.Elapsed.Round(time.Microsecond), r.ValuesPerSec, r.MBPerSec, r.Speedup)
	}
	return sb.String()
}

// VerifyBatch checks the acceptance invariant behind the throughput
// numbers: the batch engine's packed output is byte-identical to
// per-value AppendShortest over the corpus, for every given shard
// count.
func VerifyBatch(corpus []float64, shardCounts []int) error {
	want := make([]byte, 0, len(corpus)*24)
	for _, v := range corpus {
		want = floatprint.AppendShortest(want, v)
	}
	for _, shards := range shardCounts {
		res, err := batch.New(batch.Config{Shards: shards}).Convert(context.Background(), corpus)
		if err != nil {
			return fmt.Errorf("batch convert (shards=%d): %w", shards, err)
		}
		if !bytes.Equal(res.Buf, want) {
			return fmt.Errorf("batch output (shards=%d) differs from per-value AppendShortest", shards)
		}
	}
	return nil
}

// RenderSuccessors formats the generational comparison.
func RenderSuccessors(rows []SuccessorRow, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %12s %10s %12s\n", "Algorithm", "Time", "Relative", "Fallbacks")
	for _, r := range rows {
		fb := ""
		if r.Fallbacks > 0 {
			fb = fmt.Sprintf("%d (%.2f%%)", r.Fallbacks, 100*float64(r.Fallbacks)/float64(n))
		}
		fmt.Fprintf(&sb, "%-32s %12s %9.3fx %12s\n", r.Name, r.Elapsed.Round(time.Millisecond), r.Relative, fb)
	}
	return sb.String()
}
