package floatprint

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// runTool builds and runs a command from cmd/ with the given arguments,
// returning combined output.  Skipped in -short mode (compilation cost).
func runTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI end-to-end test in short mode")
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestCLIFpprint(t *testing.T) {
	out := runTool(t, "fpprint", "0.3", "1e23")
	if !strings.Contains(out, "0.3") || !strings.Contains(out, "1e23") {
		t.Errorf("fpprint output:\n%s", out)
	}
	out = runTool(t, "fpprint", "-pos", "-20", "100")
	if !strings.Contains(out, "100.000000000000000#####") {
		t.Errorf("fpprint marks output:\n%s", out)
	}
	out = runTool(t, "fpprint", "-base", "16", "255.5")
	if !strings.Contains(out, "ff.8") {
		t.Errorf("fpprint hex output:\n%s", out)
	}
	out = runTool(t, "fpprint", "-mode", "unknown", "1e23")
	if !strings.Contains(out, "9.999999999999999e22") {
		t.Errorf("fpprint unknown-mode output:\n%s", out)
	}
}

func TestCLIFpbenchSmall(t *testing.T) {
	out := runTool(t, "fpbench", "-table", "2", "-n", "3000")
	for _, want := range []string{"Steele & White", "estimate", "Relative"} {
		if !strings.Contains(out, want) {
			t.Errorf("fpbench table 2 missing %q:\n%s", want, out)
		}
	}
	out = runTool(t, "fpbench", "-successors", "-n", "3000")
	if !strings.Contains(out, "Ryu") || !strings.Contains(out, "Grisu3") {
		t.Errorf("fpbench successors output:\n%s", out)
	}
}

// runToolExpectError is runTool for invocations that must exit
// non-zero; it fails the test if the command succeeds.
func runToolExpectError(t *testing.T, tool string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI end-to-end test in short mode")
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v exited 0, want failure\n%s", tool, args, out)
	}
	return string(out)
}

func TestCLIFpverifySmall(t *testing.T) {
	out := runTool(t, "fpverify", "-n", "2000")
	if !strings.Contains(out, "all checks passed") {
		t.Errorf("fpverify output:\n%s", out)
	}
}

// TestCLIFpverifyFailureExit pins the CI contract: when any mismatch is
// recorded, fpverify must exit non-zero and print a FAILURES summary
// line (checked here via the synthetic -inject-failure mismatch).
func TestCLIFpverifyFailureExit(t *testing.T) {
	out := runToolExpectError(t, "fpverify", "-n", "1", "-inject-failure")
	if !strings.Contains(out, "1 FAILURES") {
		t.Errorf("fpverify failure summary missing:\n%s", out)
	}
	if strings.Contains(out, "all checks passed") {
		t.Errorf("fpverify claimed success while failing:\n%s", out)
	}
}

func TestCLIFpbenchBatch(t *testing.T) {
	out := runTool(t, "fpbench", "-batch", "-n", "3000")
	for _, want := range []string{"shards", "values/s", "verified byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("fpbench -batch missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFpbenchStats(t *testing.T) {
	out := runTool(t, "fpbench", "-stats", "-n", "2000")
	for _, want := range []string{"mean shortest digits", "ryu hits", "exact free-format"} {
		if !strings.Contains(out, want) {
			t.Errorf("fpbench -stats missing %q:\n%s", want, out)
		}
	}
}

func TestCLIFpfuzzSmall(t *testing.T) {
	out := runTool(t, "fpfuzz", "-n", "1500", "-basic-every", "200")
	if !strings.Contains(out, "0 failures") {
		t.Errorf("fpfuzz output:\n%s", out)
	}
}

func TestCLIFpinspect(t *testing.T) {
	for _, c := range []struct {
		args  []string
		wants []string
	}{
		{[]string{"1e23"}, []string{"even mantissa: true", "shortest", "1e23"}},
		// -trace prints the flags of the Table 1 row the exact core took.
		// The smallest normal has f = 2^52, yet it is no binade boundary
		// there: its predecessor is a denormal at the same spacing, so it
		// takes row 3.
		{[]string{"-trace", "2.2250738585072014e-308"}, []string{"table-1 case      3  (e>=0: false, binade boundary: false)"}},
		{[]string{"-trace", "4"}, []string{"table-1 case      4  (e>=0: false, binade boundary: true)"}},
	} {
		out := runTool(t, "fpinspect", c.args...)
		for _, want := range c.wants {
			if !strings.Contains(out, want) {
				t.Errorf("fpinspect %v missing %q:\n%s", c.args, want, out)
			}
		}
	}
}

// TestCLIInitBudget holds the package init every binary importing
// floatprint runs: fpprint under GODEBUG=inittrace=1 must allocate at
// most 2,500 times across the floatprint packages' init lines, the
// print kernels must build no table of their own (they read the one
// 128-bit table internal/fastparse builds), and that table's init must
// allocate nothing.  Sharing the table took the sum from 30,449 to
// 6,505, and building it with word arithmetic instead of bignat to
// 1,981, all of it bignat's own preloaded tables (figures measured
// under Go 1.24).
func TestCLIInitBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI end-to-end test in short mode")
	}
	bin := filepath.Join(t.TempDir(), "fpprint")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/fpprint").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/fpprint: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "1")
	cmd.Env = append(os.Environ(), "GODEBUG=inittrace=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("fpprint: %v\n%s", err, stderr.String())
	}
	allocs, lines := 0, 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		// init floatprint/internal/bignat @0.81 ms, 0.45 ms clock, 208192 bytes, 1981 allocs
		if !strings.HasPrefix(line, "init floatprint/") {
			continue
		}
		lines++
		if strings.HasPrefix(line, "init floatprint/internal/ryu ") || strings.HasPrefix(line, "init floatprint/internal/extfloat ") {
			t.Errorf("internal/ryu and internal/extfloat must read fastparse.Pow10, not build a table at init: %s", line)
		}
		fields := strings.Fields(line)
		n, err := strconv.Atoi(fields[len(fields)-2])
		if err != nil || fields[len(fields)-1] != "allocs" {
			t.Fatalf("unexpected inittrace line %q", line)
		}
		if strings.HasPrefix(line, "init floatprint/internal/fastparse ") && n != 0 {
			t.Errorf("internal/fastparse's table init must not allocate: %s", line)
		}
		allocs += n
	}
	if lines == 0 {
		t.Fatalf("no floatprint init lines in fpprint's inittrace:\n%s", stderr.String())
	}
	if allocs > 2500 {
		t.Errorf("floatprint package init made %d allocations, budget 2500:\n%s", allocs, stderr.String())
	}
}
