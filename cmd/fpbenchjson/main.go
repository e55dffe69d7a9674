// Command fpbenchjson turns `go test -bench` text output into a stable
// JSON artifact and compares two such artifacts against a regression
// threshold.  It is the core of the CI bench gate:
//
//	go test -run '^$' -bench Shortest -count 8 . | fpbenchjson > BENCH_head.json
//	fpbenchjson -base BENCH_base.json -head BENCH_head.json -max-regress 10
//	fpbenchjson -head BENCH_head.json -floor "BatchParse/block:MB/s:300"
//	fpbenchjson -head BENCH_head.json -floor "BatchParse/block:MB/s:2*BatchParse/strconv"
//
// Convert mode reads benchmark lines from stdin and writes JSON to
// stdout.  Compare mode loads two JSON artifacts, matches benchmarks by
// name, and exits 1 when any benchmark present in both is more than
// -max-regress percent slower in head, reports a higher median
// allocs/op in head, or a median B/op more than 7% higher (the
// allocation columns of `go test -benchmem`).  Slower means the median
// of the per-run head/base ratios when both sides report the same
// number of runs, which pair in order (scripts/pairbench.sh interleaves
// them round by round), and the ratio of the medians otherwise; either
// way one noisy pass does not decide the gate.
//
// -floor adds an acceptance bar on the head artifact alone: every
// benchmark whose name contains the substring must report a median for
// the named metric of at least the minimum, or the exit status is 1.
// Written min*per, the bar is min times the median of the one benchmark
// whose name contains per, a ratio between two rows of the same run.
// It composes with compare mode (floor first, then the relative gate)
// or runs standalone with just -head.
//
// The schema and comparison logic live in internal/harness, shared with
// `fpbench -json`, so the gate consumes artifacts from either tool.
package main

import (
	"flag"
	"fmt"
	"os"

	"floatprint/internal/harness"
)

func main() {
	base := flag.String("base", "", "baseline BENCH JSON (enables compare mode)")
	head := flag.String("head", "", "head BENCH JSON (compare mode)")
	maxRegress := flag.Float64("max-regress", 10, "max allowed median ns/op regression, percent")
	floor := flag.String("floor", "", `floor check "substr:metric:min" or "substr:metric:min*per" on -head (e.g. "BatchParse/block:MB/s:300")`)
	flag.Parse()

	if *floor != "" {
		if *head == "" {
			fatal(fmt.Errorf("-floor needs -head"))
		}
		substr, metric, min, per, err := harness.ParseFloorSpec(*floor)
		if err != nil {
			fatal(err)
		}
		art, err := harness.LoadArtifact(*head)
		if err != nil {
			fatal(err)
		}
		failures, report, err := harness.CheckFloor(art, substr, metric, min, per)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		if failures > 0 {
			os.Exit(1)
		}
		if *base == "" {
			return
		}
	}

	if *base != "" || *head != "" {
		if *base == "" || *head == "" {
			fatal(fmt.Errorf("compare mode needs both -base and -head"))
		}
		regressions, report, err := harness.CompareArtifactFiles(*base, *head, *maxRegress)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}

	art, err := harness.ParseBenchOutput(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if err := art.WriteJSON(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpbenchjson:", err)
	os.Exit(1)
}
