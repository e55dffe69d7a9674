package trace

import "testing"

func TestBackendStrings(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendNone:       "none",
		BackendGay:        "gay-fixed",
		BackendExactFree:  "exact-free",
		BackendExactFixed: "exact-fixed",
		BackendFastParse:  "fastparse",
		BackendExactParse: "exact-parse",
		BackendRyu:        "ryu",
	} {
		if got := b.String(); got != want {
			t.Errorf("Backend(%d).String() = %q, want %q", b, got, want)
		}
	}
}

// TestSummary pins the compact line the serving layer attaches to
// conversion spans: field presence follows what the backend actually
// exercised.
func TestSummary(t *testing.T) {
	exact := &Conversion{
		Backend:     BackendExactFree,
		Table1Case:  3,
		ScaleMethod: "estimate",
		EstimateK:   -1,
		ScaleK:      0,
		FixupSteps:  1,
		Iterations:  17,
		TC1:         true,
		RoundedUp:   true,
		Digits:      17,
		K:           0,
	}
	want := "backend=exact-free case=3 scale=estimate estimate_k=-1 fixup=1" +
		" iterations=17 term=tc1 rounded=up digits=17 k=0"
	if got := exact.Summary(); got != want {
		t.Errorf("exact Summary = %q, want %q", got, want)
	}

	fast := &Conversion{Backend: BackendRyu, Digits: 3, K: 24}
	if got, want := fast.Summary(), "backend=ryu digits=3 k=24"; got != want {
		t.Errorf("fast Summary = %q, want %q", got, want)
	}

	miss := &Conversion{Backend: BackendExactParse, FastPathMiss: true, TieBreak: true, Digits: 1, K: 24}
	if got, want := miss.Summary(), "backend=exact-parse fastpath=miss term=tie digits=1 k=24"; got != want {
		t.Errorf("miss Summary = %q, want %q", got, want)
	}
}

// TestResetClears: a reused record carries nothing over.
func TestResetClears(t *testing.T) {
	c := &Conversion{Backend: BackendRyu, Iterations: 9, Mode: "nearest-even"}
	c.Reset()
	if *c != (Conversion{}) {
		t.Fatalf("Reset left %+v", *c)
	}
}
