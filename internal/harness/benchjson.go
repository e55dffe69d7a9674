// Benchmark-JSON schema and comparison: the single source of truth for
// the BENCH_*.json artifacts behind the CI bench gate.  Two CLIs speak
// it — cmd/fpbenchjson converts `go test -bench` output and compares
// artifacts, and cmd/fpbench -json emits its experiment tables in the
// same shape — so a regression gate can consume either without caring
// which produced the file.

package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's aggregated runs.
type Benchmark struct {
	Name          string               `json:"name"` // GOMAXPROCS suffix stripped
	Runs          int                  `json:"runs"`
	NsPerOp       []float64            `json:"ns_per_op"`
	MedianNsPerOp float64              `json:"median_ns_per_op"`
	Metrics       map[string][]float64 `json:"metrics,omitempty"` // B/op, allocs/op, custom units
}

// Artifact is the JSON file layout (BENCH_*.json).
type Artifact struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Append adds one aggregated entry built from raw per-run ns/op
// samples, computing the median — how fpbench folds its experiment
// timings into the shared schema.
func (a *Artifact) Append(name string, nsPerOp []float64, metrics map[string][]float64) {
	if len(metrics) == 0 {
		metrics = nil
	}
	a.Benchmarks = append(a.Benchmarks, Benchmark{
		Name:          name,
		Runs:          len(nsPerOp),
		NsPerOp:       nsPerOp,
		MedianNsPerOp: median(nsPerOp),
		Metrics:       metrics,
	})
}

// WriteJSON writes the artifact as indented JSON.
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// procSuffix matches the trailing -N GOMAXPROCS tag on benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput reads `go test -bench` output and aggregates
// per-benchmark runs.  Lines that are not benchmark results (headers,
// PASS, ok) are ignored, so raw `go test` output pipes straight in.
func ParseBenchOutput(r io.Reader) (*Artifact, error) {
	byName := map[string]*Benchmark{}
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark-prefixed text
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		b := byName[name]
		if b == nil {
			b = &Benchmark{Name: name, Metrics: map[string][]float64{}}
			byName[name] = b
			order = append(order, name)
		}
		b.Runs++
		// The rest of the line is value/unit pairs: `123 ns/op 0 allocs/op ...`.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			if unit := fields[i+1]; unit == "ns/op" {
				b.NsPerOp = append(b.NsPerOp, v)
			} else {
				b.Metrics[unit] = append(b.Metrics[unit], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	art := &Artifact{}
	for _, name := range order {
		b := byName[name]
		b.MedianNsPerOp = median(b.NsPerOp)
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
		art.Benchmarks = append(art.Benchmarks, *b)
	}
	if len(art.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return art, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxBytesRegress is the rise in median B/op, in percent of the base
// median, beyond which CompareArtifacts fails a benchmark.  Bytes per op
// move a little with b.N (a buffer rebuilt once per run, a sync.Pool
// refilled after a GC), so they get a small margin; allocs/op gets none.
const maxBytesRegress = 7

// CompareArtifacts matches benchmarks by name and reports every pair
// whose head ns/op exceeds the base by more than maxRegress percent
// (timeDelta), every pair whose head median allocs/op exceeds the base
// median at all, and every pair whose head median B/op exceeds the base
// median by more than maxBytesRegress percent (the last two when both
// sides report the metric, as `go test -benchmem` does).  Time is noisy,
// so it gets a threshold; allocation counts repeat at CI's run lengths,
// so any rise fails.  Benchmarks present on only one side are listed but
// never fail the gate (new benchmarks have no baseline; removed ones
// have no head).
func CompareArtifacts(base, head *Artifact, maxRegress float64) (regressions int, report string) {
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	slower, allocating := 0, 0
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-52s %14s %14s %9s\n", "benchmark", "base ns/op", "head ns/op", "delta")
	for _, h := range head.Benchmarks {
		b, ok := baseBy[h.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-52s %14s %14.1f %9s\n", h.Name, "(new)", h.MedianNsPerOp, "")
			continue
		}
		delete(baseBy, h.Name)
		mark := allocRise(b, h)
		if mark != "" {
			allocating++
		}
		if b.MedianNsPerOp == 0 {
			if mark != "" {
				fmt.Fprintf(&sb, "%-52s %14s %14s %9s%s\n", h.Name, "", "", "", mark)
			}
			continue
		}
		deltaPct := timeDelta(b, h)
		if deltaPct > maxRegress {
			slower++
			mark = "  REGRESSION" + mark
		}
		fmt.Fprintf(&sb, "%-52s %14.1f %14.1f %+8.1f%%%s\n",
			h.Name, b.MedianNsPerOp, h.MedianNsPerOp, deltaPct, mark)
	}
	for _, b := range base.Benchmarks {
		if _, still := baseBy[b.Name]; still {
			fmt.Fprintf(&sb, "%-52s %14.1f %14s %9s\n", b.Name, b.MedianNsPerOp, "(removed)", "")
		}
	}
	sb.WriteString("(ns/op: medians; delta: median per-round head/base ratio when the runs pair, else ratio of medians)\n")
	if slower > 0 {
		fmt.Fprintf(&sb, "FAIL: %d benchmark(s) regressed more than %.0f%%\n", slower, maxRegress)
	}
	if allocating > 0 {
		fmt.Fprintf(&sb, "FAIL: %d benchmark(s) allocate more: median allocs/op rose, or median B/op rose more than %d%%\n",
			allocating, maxBytesRegress)
	}
	if slower+allocating == 0 {
		fmt.Fprintf(&sb, "ok: no benchmark regressed more than %.0f%% or allocated more\n", maxRegress)
	}
	return slower + allocating, sb.String()
}

// timeDelta is the head's ns/op change against the base, in percent.
// When both sides report the same number of runs, the runs pair in
// order, as scripts/pairbench.sh interleaves them one round at a time,
// and the delta is the median of the per-round head/base ratios: a
// change in the host's load between rounds moves both runs of a round,
// so it cancels in that round's ratio where it would shift one side's
// median.  Otherwise it is the ratio of the medians.
func timeDelta(b, h Benchmark) float64 {
	n := len(b.NsPerOp)
	if n == 0 || n != len(h.NsPerOp) {
		return 100 * (h.MedianNsPerOp - b.MedianNsPerOp) / b.MedianNsPerOp
	}
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = h.NsPerOp[i] / b.NsPerOp[i]
	}
	return 100 * (median(ratios) - 1)
}

// allocRise marks a benchmark whose head allocates more than its base:
// a higher median allocs/op, or a median B/op more than maxBytesRegress
// percent higher.  It returns "" when neither holds.
func allocRise(b, h Benchmark) string {
	mark := ""
	if ba, ha := b.Metrics["allocs/op"], h.Metrics["allocs/op"]; len(ba) > 0 && len(ha) > 0 && median(ha) > median(ba) {
		mark += fmt.Sprintf("  ALLOCS %g -> %g", median(ba), median(ha))
	}
	if bb, hb := b.Metrics["B/op"], h.Metrics["B/op"]; len(bb) > 0 && len(hb) > 0 &&
		median(hb) > median(bb)*(1+maxBytesRegress/100.0) {
		mark += fmt.Sprintf("  B/OP %g -> %g", median(bb), median(hb))
	}
	return mark
}

// CheckFloor enforces a throughput floor on an artifact: every
// benchmark whose name contains substr must report a median for the
// named metric of at least min, or, when per is not empty, of at least
// min times the median of the one benchmark whose name contains per.
// Unlike CompareArtifacts this needs no baseline, so it holds even when
// base and head regress together — the shape of an acceptance bar like
// "the batch parser sustains 300 MB/s", not "no slower than
// yesterday".  A ratio floor ("at least twice strconv's MB/s") compares
// two rows of one run, which ran under the same host load, so it keeps
// its meaning on a busy machine where an absolute one does not.  It
// returns the number of failures, and errors when no benchmark matches
// substr, or not exactly one matches per (a silently vacuous gate is a
// disabled gate).
func CheckFloor(art *Artifact, substr, metric string, min float64, per string) (failures int, report string, err error) {
	bar, of := min, ""
	if per != "" {
		var den []Benchmark
		for _, b := range art.Benchmarks {
			if strings.Contains(b.Name, per) && len(b.Metrics[metric]) > 0 {
				den = append(den, b)
			}
		}
		if len(den) != 1 {
			return 0, "", fmt.Errorf("floor %q:%s: %d benchmarks matched the denominator %q, want 1", substr, metric, len(den), per)
		}
		d := median(den[0].Metrics[metric])
		bar, of = min*d, fmt.Sprintf(" (%g × %.1f, %s)", min, d, den[0].Name)
	}
	var sb strings.Builder
	matched := 0
	for _, b := range art.Benchmarks {
		if !strings.Contains(b.Name, substr) {
			continue
		}
		samples := b.Metrics[metric]
		if len(samples) == 0 {
			continue
		}
		matched++
		got := median(samples)
		mark := "ok"
		if got < bar {
			failures++
			mark = "FAIL"
		}
		fmt.Fprintf(&sb, "%-52s %s %12.1f >= %.1f%s  %s\n", b.Name, metric, got, bar, of, mark)
	}
	if matched == 0 {
		return 0, "", fmt.Errorf("floor %q:%s: no benchmark matched", substr, metric)
	}
	return failures, sb.String(), nil
}

// ParseFloorSpec parses a -floor flag value of the form
// "substr:metric:min" (e.g. "BatchParse/block:MB/s:300"), or
// "substr:metric:min*per" for a floor of min times the metric of the
// benchmark matching per (e.g. "BatchParse/block:MB/s:2*BatchParse/strconv").
// The metric may contain slashes but no colons: the split is at the
// first and last colon, so "MB/s" survives intact.
func ParseFloorSpec(spec string) (substr, metric string, min float64, per string, err error) {
	first := strings.Index(spec, ":")
	last := strings.LastIndex(spec, ":")
	if first >= 0 && first < last {
		substr, metric = spec[:first], spec[first+1:last]
		bar, den, ratio := strings.Cut(spec[last+1:], "*")
		min, err = strconv.ParseFloat(bar, 64)
		if err == nil && substr != "" && metric != "" && (!ratio || den != "") {
			return substr, metric, min, den, nil
		}
	}
	return "", "", 0, "", fmt.Errorf("floor spec %q: want substr:metric:min or substr:metric:min*per", spec)
}

// LoadArtifact reads a BENCH_*.json file.
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var art Artifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &art, nil
}

// CompareArtifactFiles loads two artifacts and compares them.
func CompareArtifactFiles(basePath, headPath string, maxRegress float64) (int, string, error) {
	base, err := LoadArtifact(basePath)
	if err != nil {
		return 0, "", err
	}
	head, err := LoadArtifact(headPath)
	if err != nil {
		return 0, "", err
	}
	regressions, report := CompareArtifacts(base, head, maxRegress)
	return regressions, report, nil
}
