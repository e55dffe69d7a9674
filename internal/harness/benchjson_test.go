package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: floatprint
cpu: Some CPU
BenchmarkShortest-8             13817valuesXX
BenchmarkShortest-8      5000000               100.0 ns/op            24 B/op          1 allocs/op
BenchmarkShortest-8      5000000               120.0 ns/op            24 B/op          1 allocs/op
BenchmarkShortest-8      5000000               110.0 ns/op            24 B/op          1 allocs/op
BenchmarkAppendShortestCertified-8      20000000                41.5 ns/op             0 B/op          0 allocs/op
BenchmarkBatchConvert/shards=1-8             100          11000000 ns/op        47.67 MB/s       6471672 values/s
BenchmarkBatchConvert/shards=1-8             100          12000000 ns/op        45.00 MB/s       6000000 values/s
PASS
ok      floatprint      12.345s
`

func TestParseBenchOutput(t *testing.T) {
	art, err := ParseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(art.Benchmarks))
	}
	b := art.Benchmarks[0]
	if b.Name != "BenchmarkShortest" || b.Runs != 3 {
		t.Fatalf("first = %s runs=%d, want BenchmarkShortest runs=3", b.Name, b.Runs)
	}
	if b.MedianNsPerOp != 110.0 {
		t.Fatalf("median = %v, want 110", b.MedianNsPerOp)
	}
	if got := b.Metrics["B/op"]; len(got) != 3 || got[0] != 24 {
		t.Fatalf("B/op metric = %v", got)
	}
	sub := art.Benchmarks[2]
	if sub.Name != "BenchmarkBatchConvert/shards=1" {
		t.Fatalf("sub-benchmark name = %q", sub.Name)
	}
	if sub.MedianNsPerOp != 11500000 {
		t.Fatalf("sub median = %v, want 11.5e6", sub.MedianNsPerOp)
	}
	if got := sub.Metrics["values/s"]; len(got) != 2 {
		t.Fatalf("values/s metric = %v", got)
	}
}

func TestParseBenchOutputRejectsEmpty(t *testing.T) {
	if _, err := ParseBenchOutput(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty input parsed without error")
	}
}

func TestAppendAndWriteJSONRoundTrip(t *testing.T) {
	var art Artifact
	art.Append("fpbench/Batch/shards=4", []float64{120, 100, 110},
		map[string][]float64{"values/s": {9e6, 1.1e7, 1e7}})
	art.Append("fpbench/Table3/free", []float64{250}, nil)

	if got := art.Benchmarks[0]; got.Runs != 3 || got.MedianNsPerOp != 110 {
		t.Fatalf("appended entry = %+v, want runs=3 median=110", got)
	}
	if got := art.Benchmarks[1]; got.Metrics != nil {
		t.Fatalf("empty metrics should marshal away, got %v", got.Metrics)
	}

	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("written JSON does not parse back: %v", err)
	}
	if len(back.Benchmarks) != 2 || back.Benchmarks[0].MedianNsPerOp != 110 {
		t.Fatalf("round-trip = %+v", back.Benchmarks)
	}
	// Appended artifacts must be comparable against parsed ones — it is
	// the whole point of the shared schema.
	if regress, _ := CompareArtifacts(&art, &back, 10); regress != 0 {
		t.Fatalf("identical artifacts compare with %d regressions", regress)
	}
}

func art(nameNs ...any) *Artifact {
	a := &Artifact{}
	for i := 0; i+1 < len(nameNs); i += 2 {
		a.Benchmarks = append(a.Benchmarks, Benchmark{
			Name:          nameNs[i].(string),
			Runs:          1,
			MedianNsPerOp: nameNs[i+1].(float64),
		})
	}
	return a
}

func TestCompareArtifactsWithinThreshold(t *testing.T) {
	base := art("A", 100.0, "B", 200.0, "Gone", 5.0)
	head := art("A", 108.0, "B", 150.0, "New", 7.0)
	regressions, report := CompareArtifacts(base, head, 10)
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", regressions, report)
	}
	for _, want := range []string{"(new)", "(removed)", "ok: no benchmark regressed"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestCompareArtifactsFlagsRegression(t *testing.T) {
	base := art("A", 100.0, "B", 200.0)
	head := art("A", 111.0, "B", 200.0)
	regressions, report := CompareArtifacts(base, head, 10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, report)
	}
	if !strings.Contains(report, "REGRESSION") || !strings.Contains(report, "FAIL: 1 benchmark") {
		t.Errorf("report:\n%s", report)
	}
}

// runs is a benchmark with per-run ns/op samples, in round order.
func runs(name string, ns ...float64) Benchmark {
	return Benchmark{Name: name, Runs: len(ns), NsPerOp: ns, MedianNsPerOp: median(ns)}
}

// TestCompareArtifactsPairsRuns covers both time statistics on one pair
// of artifacts where they disagree.  The host's load rises by half after
// round two, and in round three it rises between the base's run and the
// head's: every round's head/base ratio but that one reads 1.04, while
// the head's median lands in the loaded rounds and the base's does not.
// Paired in order, the rounds' median ratio is +4%; the medians' ratio
// is +56%, which is what an unpaired gate would see.
func TestCompareArtifactsPairsRuns(t *testing.T) {
	base := &Artifact{Benchmarks: []Benchmark{runs("A", 100, 100, 100, 150, 150)}}
	head := &Artifact{Benchmarks: []Benchmark{runs("A", 104, 104, 156, 156, 156)}}
	if got := timeDelta(base.Benchmarks[0], head.Benchmarks[0]); math.Abs(got-4) > 1e-9 {
		t.Fatalf("paired delta = %v%%, want +4%%", got)
	}
	if regressions, report := CompareArtifacts(base, head, 10); regressions != 0 {
		t.Fatalf("paired runs: regressions = %d, want 0\n%s", regressions, report)
	}

	// A head run missing: the runs no longer pair, so the gate falls
	// back to the ratio of medians, 156/100.
	short := &Artifact{Benchmarks: []Benchmark{runs("A", 104, 156, 156, 156)}}
	if got := timeDelta(base.Benchmarks[0], short.Benchmarks[0]); math.Abs(got-56) > 1e-9 {
		t.Fatalf("unpaired delta = %v%%, want +56%%", got)
	}
	regressions, report := CompareArtifacts(base, short, 10)
	if regressions != 1 || !strings.Contains(report, "+56.0%  REGRESSION") {
		t.Fatalf("unpaired runs: regressions = %d, want 1\n%s", regressions, report)
	}

	// Paired runs still fail a slowdown every round shows: ratios 1.12,
	// 1.12, 1.08, 1.2 and 1.12, median +12%.
	slow := &Artifact{Benchmarks: []Benchmark{runs("A", 112, 112, 108, 180, 168)}}
	if regressions, report := CompareArtifacts(base, slow, 10); regressions != 1 {
		t.Fatalf("paired slowdown: regressions = %d, want 1\n%s", regressions, report)
	}
}

// withAllocs is a benchmark whose runs report allocs/op and, when
// bytes is non-nil, B/op.
func withAllocs(name string, ns float64, bytes []float64, allocs ...float64) Benchmark {
	b := Benchmark{Name: name, Runs: len(allocs), MedianNsPerOp: ns,
		Metrics: map[string][]float64{"allocs/op": allocs}}
	if bytes != nil {
		b.Metrics["B/op"] = bytes
	}
	return b
}

// TestCompareArtifactsFlagsNewAllocs pins the zero case of the exact
// gate: a benchmark whose base median allocs/op is 0 fails when its
// head median is above 0, however fast it got, while a lone nonzero run
// under a zero median and sides that do not report allocs pass.
func TestCompareArtifactsFlagsNewAllocs(t *testing.T) {
	base := &Artifact{Benchmarks: []Benchmark{
		withAllocs("Lost", 100, nil, 0, 0, 0),
		withAllocs("Blip", 100, nil, 0, 0, 0),
		withAllocs("NoHeadAllocs", 100, nil, 0, 0, 0),
	}}
	head := &Artifact{Benchmarks: []Benchmark{
		withAllocs("Lost", 50, nil, 6, 6, 6),
		withAllocs("Blip", 100, nil, 0, 1, 0),
		{Name: "NoHeadAllocs", Runs: 1, MedianNsPerOp: 100},
	}}
	regressions, report := CompareArtifacts(base, head, 10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (Lost only)\n%s", regressions, report)
	}
	if !strings.Contains(report, "ALLOCS 0 -> 6") || !strings.Contains(report, "FAIL: 1 benchmark(s) allocate more") {
		t.Errorf("report lacks the allocs failure:\n%s", report)
	}
	if strings.Contains(report, "regressed more than") {
		t.Errorf("a faster benchmark was reported as a time regression:\n%s", report)
	}
}

// TestCompareArtifactsFlagsAllocRise pins the rest of the exact gate:
// any rise in median allocs/op fails, and a rise in median B/op fails
// past maxBytesRegress percent; falls, equal medians, a B/op rise within
// the margin, and a metric only one side reports pass.
func TestCompareArtifactsFlagsAllocRise(t *testing.T) {
	base := &Artifact{Benchmarks: []Benchmark{
		withAllocs("OneMore", 100, []float64{4096, 4096, 4096}, 15, 15, 16),
		withAllocs("Fewer", 100, []float64{4096}, 290),
		withAllocs("SameMedian", 100, []float64{1000, 1000, 1000}, 3, 3, 9),
		withAllocs("BytesWithin", 100, []float64{1000, 1000, 1000}, 5, 5, 5),
		withAllocs("BytesPast", 100, []float64{1000, 1000, 1000}, 5, 5, 5),
		withAllocs("BaseOnlyBytes", 100, []float64{10}, 5),
	}}
	head := &Artifact{Benchmarks: []Benchmark{
		withAllocs("OneMore", 90, []float64{4096, 4096, 4096}, 16, 16, 16),
		withAllocs("Fewer", 100, []float64{2048}, 148),
		withAllocs("SameMedian", 100, []float64{1000, 1000, 1000}, 1, 3, 3),
		withAllocs("BytesWithin", 100, []float64{1070, 1070, 1070}, 5, 5, 5),
		withAllocs("BytesPast", 100, []float64{1071, 1071, 9}, 5, 5, 5),
		withAllocs("BaseOnlyBytes", 100, nil, 5),
	}}
	regressions, report := CompareArtifacts(base, head, 10)
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (OneMore, BytesPast)\n%s", regressions, report)
	}
	for _, want := range []string{"ALLOCS 15 -> 16", "B/OP 1000 -> 1071", "FAIL: 2 benchmark(s) allocate more"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
	for _, name := range []string{"Fewer", "SameMedian", "BytesWithin", "BaseOnlyBytes"} {
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, name+" ") && (strings.Contains(line, "ALLOCS") || strings.Contains(line, "B/OP")) {
				t.Errorf("%s was flagged: %s", name, line)
			}
		}
	}
}

func TestParseFloorSpec(t *testing.T) {
	substr, metric, min, per, err := ParseFloorSpec("BatchParse/block:MB/s:300")
	if err != nil || substr != "BatchParse/block" || metric != "MB/s" || min != 300 || per != "" {
		t.Fatalf("ParseFloorSpec = (%q, %q, %v, %q, %v)", substr, metric, min, per, err)
	}
	substr, metric, min, per, err = ParseFloorSpec("BatchParse/block:MB/s:2.5*BatchParse/strconv")
	if err != nil || substr != "BatchParse/block" || metric != "MB/s" || min != 2.5 || per != "BatchParse/strconv" {
		t.Fatalf("ratio ParseFloorSpec = (%q, %q, %v, %q, %v)", substr, metric, min, per, err)
	}
	for _, bad := range []string{"", "a", "a:b", ":MB/s:300", "a::300", "a:b:nope", "a:b:2*", "a:b:*c", "a:b:x*c"} {
		if _, _, _, _, err := ParseFloorSpec(bad); err == nil {
			t.Fatalf("ParseFloorSpec(%q) accepted, want error", bad)
		}
	}
}

func TestCheckFloor(t *testing.T) {
	art := &Artifact{}
	art.Append("BatchParse/block", []float64{50}, map[string][]float64{"MB/s": {420, 431, 405}})
	art.Append("BatchParse/strconv", []float64{110}, map[string][]float64{"MB/s": {190}})
	art.Append("Shortest", []float64{100}, nil)

	failures, report, err := CheckFloor(art, "BatchParse", "MB/s", 300, "")
	if err != nil || failures != 1 {
		t.Fatalf("CheckFloor(300) = %d failures, err %v; want 1 (strconv below)", failures, err)
	}
	if !strings.Contains(report, "FAIL") || !strings.Contains(report, "420.0") {
		t.Fatalf("report lacks FAIL mark or median:\n%s", report)
	}

	failures, _, err = CheckFloor(art, "BatchParse/block", "MB/s", 300, "")
	if err != nil || failures != 0 {
		t.Fatalf("CheckFloor(block, 300) = %d failures, err %v; want 0", failures, err)
	}

	// A floor that matches nothing is an error, not a silent pass: the
	// metric-less Shortest entry must not satisfy an MB/s floor either.
	if _, _, err := CheckFloor(art, "Shortest", "MB/s", 1, ""); err == nil {
		t.Fatal("vacuous floor passed, want error")
	}
}

// TestCheckFloorRatio: a floor written min*per holds each matched row
// to min times the median of the one row per matches, in the same
// artifact, and refuses a denominator that matches no row or several.
func TestCheckFloorRatio(t *testing.T) {
	art := &Artifact{}
	art.Append("BatchParse/block", []float64{50}, map[string][]float64{"MB/s": {420, 431, 405}})
	art.Append("BatchParse/per_value", []float64{80}, map[string][]float64{"MB/s": {250}})
	art.Append("BatchParse/strconv", []float64{110}, map[string][]float64{"MB/s": {190, 200, 210}})

	// 420 against 2 × 200 passes; against 2.2 × 200 it fails.
	failures, report, err := CheckFloor(art, "BatchParse/block", "MB/s", 2, "BatchParse/strconv")
	if err != nil || failures != 0 {
		t.Fatalf("CheckFloor(block, 2×strconv) = %d failures, err %v; want 0\n%s", failures, err, report)
	}
	if !strings.Contains(report, "400.0") || !strings.Contains(report, "BatchParse/strconv") {
		t.Fatalf("report lacks the bar or the denominator row:\n%s", report)
	}
	failures, report, err = CheckFloor(art, "BatchParse/block", "MB/s", 2.2, "BatchParse/strconv")
	if err != nil || failures != 1 || !strings.Contains(report, "FAIL") {
		t.Fatalf("CheckFloor(block, 2.2×strconv) = %d failures, err %v; want 1\n%s", failures, err, report)
	}

	for _, per := range []string{"BatchParse/missing", "BatchParse/"} {
		if _, _, err := CheckFloor(art, "BatchParse/block", "MB/s", 1, per); err == nil {
			t.Errorf("denominator %q: floor passed, want error", per)
		}
	}
}
