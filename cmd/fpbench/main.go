// Command fpbench regenerates the paper's evaluation tables (Burger &
// Dybvig, PLDI 1996) on this machine:
//
//	fpbench -table 2     Table 2: relative cost of the three scaling algorithms
//	fpbench -table 3     Table 3: free vs fixed vs printf, mis-rounding count
//	fpbench -stats       §5 statistic: mean shortest-digit count (paper: 15.2)
//	                     plus the path-hit telemetry (Ryū/Gay/exact mix)
//	fpbench -ablation    estimator accuracy: Burger-Dybvig vs Gay
//	fpbench -parallel    concurrent-conversion scaling with goroutine count
//	fpbench -batch       batch-engine corpus throughput, 1 shard vs NumCPU
//	fpbench -batchparse  ingestion: batch-parse MB/s, block engine vs
//	                     per-value Parse vs strconv, with bit-identity
//	                     verification (-parse-floor N fails below N MB/s)
//	fpbench -parse       read side: fast-path Parse vs the exact reader,
//	                     with byte-identity verification and fallback rate
//	fpbench -interval    interval I/O: outward-rounded print and
//	                     enclosure-guaranteed parse throughput in
//	                     intervals/s, with corpus-wide enclosure
//	                     verification
//	fpbench -shootout    backend head-to-head: the default backend under
//	                     each nearest reader mode vs exact vs strconv over
//	                     the corpus, with byte-identity verification
//	fpbench -all         everything
//	fpbench -n 50000     corpus size (default: the paper's full 250,680)
//	fpbench -json out    also write results as a BENCH_*.json artifact
//	                     ("-" for stdout), comparable with fpbenchjson
//
// Results print with the paper's reference numbers alongside for direct
// comparison; see EXPERIMENTS.md for a recorded run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"floatprint"
	"floatprint/internal/core"
	"floatprint/internal/fpformat"
	"floatprint/internal/harness"
	"floatprint/internal/reader"
	"floatprint/internal/schryer"
)

func main() {
	table := flag.Int("table", 0, "reproduce one table (2 or 3)")
	stats := flag.Bool("stats", false, "mean shortest-digit statistic and path-hit telemetry")
	ablation := flag.Bool("ablation", false, "estimator accuracy ablation")
	successors := flag.Bool("successors", false, "compare with Grisu3 and Ryu (follow-on work)")
	parallel := flag.Bool("parallel", false, "concurrent shortest-conversion scaling")
	batchF := flag.Bool("batch", false, "batch-engine corpus throughput (1 shard vs NumCPU)")
	batchParseF := flag.Bool("batchparse", false, "batch-parse ingestion throughput in MB/s: block engine vs per-value Parse vs strconv")
	parseFloor := flag.Float64("parse-floor", 0, "with -batchparse: fail unless the block engine sustains this many MB/s")
	parseF := flag.Bool("parse", false, "fast-path Parse vs exact reader, with fallback rate")
	intervalF := flag.Bool("interval", false, "interval print/parse throughput with enclosure verification")
	shootout := flag.Bool("shootout", false, "backend head-to-head: default backend per reader mode vs exact vs strconv")
	all := flag.Bool("all", false, "run every experiment")
	n := flag.Int("n", schryer.CorpusSize, "corpus size (max 250680)")
	jsonOut := flag.String("json", "", "write results as a BENCH JSON artifact to this path (\"-\" for stdout)")
	flag.Parse()

	if !*all && *table == 0 && !*stats && !*ablation && !*successors && !*parallel && !*batchF && !*batchParseF && !*parseF && !*intervalF && !*shootout {
		flag.Usage()
		os.Exit(2)
	}
	var art *harness.Artifact
	if *jsonOut != "" {
		art = &harness.Artifact{}
	}
	corpus := schryer.CorpusN(*n)
	fmt.Printf("Schryer-style corpus: %d positive normalized doubles\n\n", len(corpus))

	if *all || *table == 2 {
		if err := runTable2(corpus, art); err != nil {
			fatal(err)
		}
	}
	if *all || *table == 3 {
		if err := runTable3(corpus, art); err != nil {
			fatal(err)
		}
	}
	if *all || *stats {
		if err := runStats(corpus); err != nil {
			fatal(err)
		}
	}
	if *all || *ablation {
		runAblation(corpus)
	}
	if *all || *successors {
		if err := runSuccessors(corpus, art); err != nil {
			fatal(err)
		}
	}
	if *all || *parallel {
		runParallel(corpus, art)
	}
	if *all || *batchF {
		if err := runBatch(corpus, art); err != nil {
			fatal(err)
		}
	}
	if *all || *batchParseF {
		if err := runBatchParse(corpus, *parseFloor, art); err != nil {
			fatal(err)
		}
	}
	if *all || *parseF {
		if err := runParse(corpus, art); err != nil {
			fatal(err)
		}
	}
	if *all || *intervalF {
		if err := runInterval(corpus, art); err != nil {
			fatal(err)
		}
	}
	if *all || *shootout {
		if err := runShootout(corpus, art); err != nil {
			fatal(err)
		}
	}
	if art != nil {
		if err := writeArtifact(art, *jsonOut); err != nil {
			fatal(err)
		}
	}
}

// writeArtifact emits the collected experiment timings in the shared
// internal/harness bench-JSON schema, so a run of fpbench can feed the
// same regression gate as `go test -bench` output converted with
// fpbenchjson.
func writeArtifact(art *harness.Artifact, path string) error {
	if path == "-" {
		return art.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := art.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// record folds one experiment timing into the artifact as per-value
// ns/op (nil-safe: recording is off unless -json was given).
func record(art *harness.Artifact, name string, nsPerOp float64, metrics map[string][]float64) {
	if art == nil {
		return
	}
	art.Append("fpbench/"+name, []float64{nsPerOp}, metrics)
}

// nsPerValue converts an elapsed whole-corpus time to per-value ns/op.
func nsPerValue(elapsed time.Duration, values int) float64 {
	if values == 0 {
		return 0
	}
	return elapsed.Seconds() * 1e9 / float64(values)
}

// slug turns a human experiment label into a benchmark-name segment:
// non-alphanumeric runs collapse to single underscores.
func slug(s string) string {
	var sb strings.Builder
	pend := false
	for _, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum {
			pend = sb.Len() > 0
			continue
		}
		if pend {
			sb.WriteByte('_')
			pend = false
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// runBatch reports batch-engine throughput over the corpus for one
// shard and NumCPU shards, then verifies the acceptance invariant that
// the packed output is byte-identical to per-value AppendShortest.
func runBatch(corpus []float64, art *harness.Artifact) error {
	shardCounts := []int{1}
	if cpus := runtime.NumCPU(); cpus > 1 {
		shardCounts = append(shardCounts, cpus)
	}
	fmt.Println("== Batch engine: corpus throughput by shard count ==")
	rows, err := harness.RunBatch(corpus, shardCounts)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderBatch(rows, len(corpus)))
	for _, r := range rows {
		record(art, fmt.Sprintf("Batch/shards=%d", r.Shards), nsPerValue(r.Elapsed, len(corpus)),
			map[string][]float64{"values/s": {r.ValuesPerSec}, "MB/s": {r.MBPerSec}})
	}
	if err := harness.VerifyBatch(corpus, shardCounts); err != nil {
		return err
	}
	fmt.Println("batch output verified byte-identical to per-value AppendShortest")
	fmt.Println()
	return nil
}

// runBatchParse reports batch-parse ingestion throughput in MB/s —
// the Lemire figure of merit — for the block engine, a per-value Parse
// loop, and strconv, then verifies the acceptance invariant that the
// packed output is bit-identical to per-value Parse on every token.
// With floor > 0 the run fails unless the block engine sustains that
// many MB/s, which is how CI pins an absolute ingestion bar.
func runBatchParse(corpus []float64, floor float64, art *harness.Artifact) error {
	fmt.Println("== Batch-parse engine: NDJSON ingestion throughput ==")
	rows, err := harness.RunBatchParse(corpus)
	if err != nil {
		return err
	}
	in := harness.BatchParseNDJSON(corpus)
	fmt.Print(harness.RenderBatchParse(rows, len(in), len(corpus)))
	for _, r := range rows {
		record(art, "BatchParse/"+slug(r.Name), nsPerValue(r.Elapsed, len(corpus)),
			map[string][]float64{"MB/s": {r.MBPerSec}, "speedup": {r.Speedup}})
	}
	if err := harness.VerifyBatchParse(corpus); err != nil {
		return err
	}
	fmt.Println("batch-parse output verified bit-identical to per-value Parse")
	if floor > 0 {
		block := rows[0].MBPerSec
		if block < floor {
			return fmt.Errorf("batch-parse floor: block engine sustained %.1f MB/s, floor is %.1f", block, floor)
		}
		fmt.Printf("floor: block engine %.1f MB/s >= %.1f MB/s\n", block, floor)
	}
	fmt.Println()
	return nil
}

// runParse measures the read side: the public Parse (Eisel–Lemire fast
// path with exact fallback) against the exact big-integer reader alone,
// over the shortest rendering of every corpus value.  Before timing it
// verifies the acceptance invariant — Parse must return exactly the
// bits the exact reader returns, for every string — and afterwards it
// reports the fast path's measured fallback rate from the telemetry
// counters.
func runParse(corpus []float64, art *harness.Artifact) error {
	fmt.Println("== Read side: fast-path Parse vs exact reader (shortest corpus strings) ==")
	strs := make([]string, len(corpus))
	for i, v := range corpus {
		strs[i] = floatprint.Shortest(v)
	}

	for i, s := range strs {
		got, err := floatprint.Parse(s, nil)
		if err != nil {
			return fmt.Errorf("parse verify: Parse(%q): %w", s, err)
		}
		ev, err := reader.Parse(s, 10, fpformat.Binary64, reader.NearestEven)
		if err != nil {
			return fmt.Errorf("parse verify: exact reader on %q: %w", s, err)
		}
		want, err := ev.Float64()
		if err != nil {
			return fmt.Errorf("parse verify: %q: %w", s, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || got != corpus[i] {
			return fmt.Errorf("parse verify: %q: fast pipeline %x, exact reader %x, printed from %x",
				s, math.Float64bits(got), math.Float64bits(want), math.Float64bits(corpus[i]))
		}
	}
	fmt.Printf("verified: Parse bit-identical to the exact reader over %d strings\n", len(strs))

	prev := floatprint.SetStatsEnabled(true)
	before := floatprint.Snapshot()
	start := time.Now()
	for _, s := range strs {
		if _, err := floatprint.Parse(s, nil); err != nil {
			return err
		}
	}
	fastElapsed := time.Since(start)
	delta := floatprint.Snapshot().Sub(before)
	floatprint.SetStatsEnabled(prev)

	// The exact reader is ~25x slower; a subsample keeps -all runs quick.
	exactN := min(len(strs), 25000)
	start = time.Now()
	for _, s := range strs[:exactN] {
		if _, err := reader.Parse(s, 10, fpformat.Binary64, reader.NearestEven); err != nil {
			return err
		}
	}
	exactElapsed := time.Since(start)

	fastNs := nsPerValue(fastElapsed, len(strs))
	exactNs := nsPerValue(exactElapsed, exactN)
	attempts := delta.ParseFastHits + delta.ParseFastMisses
	fallback := 0.0
	if attempts > 0 {
		fallback = 100 * float64(delta.ParseFastMisses) / float64(attempts)
	}
	fmt.Printf("  fast-path Parse   %10.1f ns/op\n", fastNs)
	fmt.Printf("  exact reader      %10.1f ns/op   (%d-value subsample)\n", exactNs, exactN)
	fmt.Printf("  speedup           %10.1fx\n", exactNs/fastNs)
	fmt.Printf("  fallback rate     %10.4f%%   (%d of %d attempts declined to the exact reader)\n",
		fallback, delta.ParseFastMisses, attempts)
	record(art, "Parse/fast", fastNs, map[string][]float64{"fallback-pct": {fallback}})
	record(art, "Parse/exact", exactNs, nil)
	fmt.Println()
	return nil
}

// runInterval measures the interval workload — outward-rounded printing
// and enclosure-guaranteed reading of degenerate corpus intervals — in
// intervals per second, fast-path and forced-exact configurations of
// each direction, after verifying over the whole corpus that the two
// configurations are byte-identical and that the enclosure contract
// holds (each endpoint may widen at most one ulp outward through a
// print/parse round trip, never inward).
func runInterval(corpus []float64, art *harness.Artifact) error {
	fmt.Println("== Interval I/O: outward print / enclosure parse throughput ==")
	if err := harness.VerifyInterval(corpus); err != nil {
		return err
	}
	fmt.Printf("verified: fast == exact both directions; Parse(print([x,x])) encloses within one ulp per side over %d values\n", len(corpus))
	rows, err := harness.RunInterval(corpus)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderInterval(rows, len(corpus)))
	for _, r := range rows {
		metrics := map[string][]float64{"intervals/s": {r.IntervalsPerSec}}
		if attempts := r.FastHits + r.FastMisses; attempts > 0 {
			metrics["fast-hit-pct"] = []float64{100 * float64(r.FastHits) / float64(attempts)}
		}
		record(art, "Interval/"+slug(r.Name), nsPerValue(r.Elapsed, len(corpus)), metrics)
	}
	fmt.Println()
	return nil
}

// runParallel measures aggregate shortest-conversion throughput as the
// goroutine count rises from 1 to 2×GOMAXPROCS.  With the lock-free power
// cache, the pooled conversion state, and the zero-allocation append path,
// throughput should track core count nearly linearly up to GOMAXPROCS and
// then flatten; a sub-linear curve indicates contention (the regime the
// old global power-table mutex serialized outright).
func runParallel(corpus []float64, art *harness.Artifact) {
	procs := runtime.GOMAXPROCS(0)
	fmt.Println("== Concurrent conversion scaling (AppendShortest, reused buffers) ==")
	fmt.Printf("GOMAXPROCS=%d; per-row: goroutines, aggregate conversions/s, speedup vs 1\n", procs)
	var base float64
	for g := 1; g <= 2*procs; g *= 2 {
		rate := parallelRate(corpus, g)
		if g == 1 {
			base = rate
		}
		fmt.Printf("  g=%-3d  %12.0f conv/s   %5.2fx\n", g, rate, rate/base)
		record(art, fmt.Sprintf("Parallel/g=%d", g), 1e9/rate,
			map[string][]float64{"conv/s": {rate}})
	}
	fmt.Println()
}

func parallelRate(corpus []float64, g int) float64 {
	const perG = 200000
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for i := 0; i < perG; i++ {
				buf = floatprint.AppendShortest(buf[:0], corpus[(off+i)%len(corpus)])
			}
		}(w * 127)
	}
	wg.Wait()
	return float64(g*perG) / time.Since(start).Seconds()
}

func runSuccessors(corpus []float64, art *harness.Artifact) error {
	fmt.Println("== Follow-on work: three generations of shortest printing ==")
	fmt.Println("(Burger-Dybvig 1996 exact; Grisu3 2010 certified + fallback; Ryu 2018)")
	rows, err := harness.RunSuccessors(corpus)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderSuccessors(rows, len(corpus)))
	for _, r := range rows {
		record(art, "Successors/"+slug(r.Name), nsPerValue(r.Elapsed, len(corpus)),
			map[string][]float64{"relative": {r.Relative}})
	}
	fmt.Println()
	return nil
}

// shootoutPasses is the timed-pass count per contender: enough samples
// for a stable median without making -all crawl.
const shootoutPasses = 5

func runShootout(corpus []float64, art *harness.Artifact) error {
	fmt.Println("== Backend shootout: default backend per nearest reader mode vs exact vs strconv ==")
	fmt.Println("(Gareau-Lemire style head-to-head on the production append path)")
	rows, err := harness.RunShootout(corpus, shootoutPasses)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderShootout(rows, len(corpus), shootoutPasses))
	for _, r := range rows {
		if art == nil {
			continue
		}
		art.Append("Shootout/"+slug(r.Name), r.NsPerOp, nil)
	}
	fmt.Println()
	return nil
}

func runTable2(corpus []float64, art *harness.Artifact) error {
	fmt.Println("== Table 2: scaling algorithm relative CPU time ==")
	fmt.Println("(paper, DEC AXP 8420: iterative 145.2x, float-log 1.2x, estimate 1.0x)")
	rows, err := harness.RunTable2(corpus)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderTable2(rows))
	for _, r := range rows {
		record(art, "Table2/"+slug(r.Name), nsPerValue(r.Elapsed, len(corpus)),
			map[string][]float64{"relative": {r.Relative}, "scale-ops": {r.MeanScaleOps}})
	}
	fmt.Println()
	return nil
}

func runTable3(corpus []float64, art *harness.Artifact) error {
	fmt.Println("== Table 3: free vs fixed vs printf ==")
	res, err := harness.RunTable3(corpus)
	if err != nil {
		return err
	}
	fmt.Print(harness.RenderTable3(res))
	record(art, "Table3/free", nsPerValue(res.Free, res.Corpus),
		map[string][]float64{"mean-digits": {res.MeanDigits}})
	record(art, "Table3/fixed17", nsPerValue(res.Fixed17, res.Corpus), nil)
	record(art, "Table3/printf17", nsPerValue(res.Printf, res.Corpus),
		map[string][]float64{"incorrect": {float64(res.Incorrect)}})
	fmt.Println()
	return nil
}

func runStats(corpus []float64) error {
	fmt.Println("== §5 statistic: shortest-output digit counts ==")
	res, err := harness.RunTable3(corpus[:min(len(corpus), 100000)])
	if err != nil {
		return err
	}
	fmt.Printf("mean shortest digits: %.2f (paper: 15.2 over its corpus)\n\n", res.MeanDigits)

	// Path-hit telemetry: drive the public hot paths over the corpus with
	// collection enabled and report which algorithm decided each value, so
	// the throughput tables above are interpretable (Ryū decides every
	// shortest value, so they measure 128-bit integer arithmetic; fixed
	// format mixes Gay's fast path with the exact big-integer algorithm).
	fmt.Println("== Path-hit telemetry (floatprint.Snapshot) ==")
	prev := floatprint.SetStatsEnabled(true)
	before := floatprint.Snapshot()
	buf := make([]byte, 0, 64)
	for _, v := range corpus {
		buf = floatprint.AppendShortest(buf[:0], v)
	}
	// 15 digits keeps Gay's heuristic in its intended regime ("when the
	// requested number of digits is small"); at 16-17 the accumulated
	// extended-float error always spans a boundary and every value falls
	// back to the exact algorithm.
	for _, v := range corpus[:min(len(corpus), 20000)] {
		buf = floatprint.AppendFixed(buf[:0], v, 15)
	}
	// Read side: parse each value's shortest rendering back, so the
	// fast-path hit/fallback mix shows up in the same snapshot.
	parseN := min(len(corpus), 20000)
	for _, v := range corpus[:parseN] {
		if _, err := floatprint.Parse(floatprint.Shortest(v), nil); err != nil {
			return err
		}
	}
	delta := floatprint.Snapshot().Sub(before)
	floatprint.SetStatsEnabled(prev)
	fmt.Printf("shortest over %d values, fixed(15) over %d values, Parse over %d shortest strings:\n",
		len(corpus), min(len(corpus), 20000), parseN)
	fmt.Print(delta.String())
	fmt.Println()

	// Estimator behavior on the exact path, measured corpus-wide: the
	// public API above routes every shortest value through Ryū, so the §3.2
	// scale estimator's fixup rate must be measured by driving the exact
	// algorithm directly over every value.  The exact core counts its
	// own estimator and digit-loop events, so the telemetry delta is the
	// measurement.
	fmt.Println("== Conversion traces: §3.2 estimator fixup rate (exact path, whole corpus) ==")
	prev = floatprint.SetStatsEnabled(true)
	before = floatprint.Snapshot()
	for _, v := range corpus {
		if _, err := core.FreeFormat(fpformat.DecodeFloat64(v), 10,
			core.ScalingEstimate, core.ReaderNearestEven); err != nil {
			return err
		}
	}
	exact := floatprint.Snapshot().Sub(before)
	floatprint.SetStatsEnabled(prev)
	n := float64(exact.TraceEstimates)
	fmt.Printf("values                %12d\n", exact.TraceEstimates)
	fmt.Printf("fixups (estimate k-1) %12d  (%.2f%%; paper: 'frequently one too small')\n",
		exact.TraceFixups, 100*float64(exact.TraceFixups)/n)
	fmt.Printf("mean loop iterations  %12.2f\n", float64(exact.TraceIterations)/n)
	fmt.Printf("mean output digits    %12.2f\n", float64(exact.TraceDigits)/n)
	fmt.Printf("round-ups             %12d  (%.2f%%)\n",
		exact.TraceRoundUps, 100*float64(exact.TraceRoundUps)/n)
	fmt.Println()
	return nil
}

func runAblation(corpus []float64) {
	fmt.Println("== Ablation: scale-factor estimator accuracy ==")
	fmt.Println("(paper: our 2-flop estimate is 'frequently k-1' but costs nothing;")
	fmt.Println(" Gay's 5-flop Taylor estimate is more accurate but more expensive)")
	stats := harness.RunEstimatorAblation(corpus)
	fmt.Print(harness.RenderEstimatorStats(stats, len(corpus)))
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpbench:", err)
	os.Exit(1)
}
