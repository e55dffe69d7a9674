package harness

import (
	"strings"
	"testing"

	"floatprint/internal/schryer"
)

func TestRunTable2ShapeHolds(t *testing.T) {
	// The paper's Table 2 shape: iterative scaling is dramatically slower
	// than either estimate-based algorithm.  On a corpus slice the ratio
	// will not match the paper's 145x (different bignum substrate), but
	// iterative must clearly lose and the estimator must win or tie.
	rows, err := RunTable2(schryer.CorpusN(6000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	iter, flog, est := rows[0], rows[1], rows[2]
	t.Logf("relative time: iterative %.2fx, float-log %.2fx", iter.Relative, flog.Relative)
	if est.Relative != 1.0 {
		t.Errorf("estimator row should be the 1.0 baseline, got %v", est.Relative)
	}
	if iter.Relative < 3 {
		t.Errorf("iterative scaling only %.2fx the estimator; expected a large gap", iter.Relative)
	}
	if flog.Relative > iter.Relative {
		t.Errorf("float-log (%.2fx) should not be slower than iterative (%.2fx)",
			flog.Relative, iter.Relative)
	}
	// The paper's asymptotic claim shows up directly in operation counts:
	// O(|log v|) vs O(1) is well over an order of magnitude on a corpus
	// that sweeps all binades.
	if iter.RelativeOps < 20 {
		t.Errorf("iterative scaling ops only %.1fx the estimator's", iter.RelativeOps)
	}
	if est.MeanScaleOps > 15 {
		t.Errorf("estimator scaling used %.1f ops on average; should be O(1)", est.MeanScaleOps)
	}
	out := RenderTable2(rows)
	for _, want := range []string{"Steele & White", "logarithm", "estimate", "Relative"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTable2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable3ShapeHolds(t *testing.T) {
	res, err := RunTable3(schryer.CorpusN(8000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Corpus != 8000 {
		t.Errorf("corpus count %d", res.Corpus)
	}
	// Free format does strictly more work than straightforward fixed; the
	// paper's geometric mean is 1.66.  Allow a broad band for machine and
	// corpus-slice variation, but the direction must hold.
	if res.FreeVsFixed < 1.0 {
		t.Errorf("free format faster than fixed (%.2f); shape violated", res.FreeVsFixed)
	}
	if res.FreeVsFixed > 6 {
		t.Errorf("free/fixed ratio %.2f implausibly large", res.FreeVsFixed)
	}
	// The float-arithmetic printf must beat the exact fixed conversion.
	if res.FixedVsPrintf < 1.0 {
		t.Errorf("exact fixed format faster than naive printf (%.2f)", res.FixedVsPrintf)
	}
	// Mis-rounding exists but is rare (paper: 0..2.5% by system).
	if res.Incorrect == 0 {
		t.Errorf("printf simulation produced no incorrect roundings")
	}
	if res.Incorrect*20 > res.Corpus {
		t.Errorf("printf incorrect on %d/%d: more than 5%%", res.Incorrect, res.Corpus)
	}
	// Mean shortest digits for doubles is near the paper's 15.2.
	if res.MeanDigits < 13 || res.MeanDigits > 17.5 {
		t.Errorf("mean digits %.2f outside plausible band", res.MeanDigits)
	}
	out := RenderTable3(res)
	for _, want := range []string{"free format", "fixed format", "printf", "15.2", "1.66"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTable3 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunEstimatorAblation(t *testing.T) {
	corpus := schryer.CorpusN(20000)
	stats := RunEstimatorAblation(corpus)
	if len(stats) != 2 {
		t.Fatalf("want 2 estimators, got %d", len(stats))
	}
	bd, g := stats[0], stats[1]
	// The paper: our estimate never overshoots and is within one, so
	// exact+low must cover everything.
	if bd.Off != 0 {
		t.Errorf("Burger-Dybvig estimator off by more than one on %d values", bd.Off)
	}
	if bd.Exact+bd.Low != len(corpus) {
		t.Errorf("Burger-Dybvig tallies %d+%d != %d", bd.Exact, bd.Low, len(corpus))
	}
	// "our simpler estimate is frequently k−1" — the off-by-one bucket is
	// substantial, unlike Gay's.
	if bd.Low == 0 {
		t.Errorf("Burger-Dybvig estimator never off by one; not matching the paper's description")
	}
	// Gay's estimate is more accurate: higher exact rate.
	if g.Exact <= bd.Exact {
		t.Errorf("Gay exact %d should exceed Burger-Dybvig exact %d", g.Exact, bd.Exact)
	}
	out := RenderEstimatorStats(stats, len(corpus))
	if !strings.Contains(out, "Gay") || !strings.Contains(out, "exact") {
		t.Errorf("RenderEstimatorStats output malformed:\n%s", out)
	}
}

func TestRunSuccessorsShape(t *testing.T) {
	rows, err := RunSuccessors(schryer.CorpusN(8000))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	dragon, grisuRow, ryuRow := rows[0], rows[1], rows[2]
	if dragon.Relative != 1.0 {
		t.Errorf("exact algorithm should be the baseline")
	}
	// Each successor generation is faster than the last.
	if grisuRow.Elapsed >= dragon.Elapsed {
		t.Errorf("Grisu (%v) should beat the exact algorithm (%v)", grisuRow.Elapsed, dragon.Elapsed)
	}
	if ryuRow.Elapsed >= dragon.Elapsed {
		t.Errorf("Ryu (%v) should beat the exact algorithm (%v)", ryuRow.Elapsed, dragon.Elapsed)
	}
	// Grisu's fallback rate stays small.
	if grisuRow.Fallbacks == 0 || grisuRow.Fallbacks > 8000/20 {
		t.Errorf("implausible Grisu fallback count %d", grisuRow.Fallbacks)
	}
	out := RenderSuccessors(rows, 8000)
	for _, want := range []string{"Burger-Dybvig", "Grisu3", "Ryu", "strconv", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderSuccessors missing %q:\n%s", want, out)
		}
	}
}
