//go:build go1.24 && !race

// Under -race, sync.Pool drops a quarter of its puts at random, and
// with them the references that keep a Pool's generations alive, so
// idle values may be released at the first GC.

package idle

import (
	"runtime"
	"testing"
	"weak"
)

// TestIdleValuesAge pins sync.Pool's ageing: a value survives one GC,
// a value left idle through two is released, and a Pool left idle
// through two holds nothing.
func TestIdleValuesAge(t *testing.T) {
	p, made := counted()
	a, b := p.Get(), p.Get()
	weakA, weakB := weak.Make(a), weak.Make(b)
	p.Put(a)
	p.Put(b)
	runtime.GC()
	if got := p.Get(); got != weakB.Value() {
		t.Fatal("the last value put did not survive one GC")
	} else {
		p.Put(got) // a GC has run since a and b were put: a new generation
	}
	runtime.GC()
	if weakA.Value() != nil {
		t.Fatal("a value idle through two GCs was not released")
	}
	if weakB.Value() == nil {
		t.Fatal("a value put after the first GC did not survive the second")
	}
	runtime.GC()
	runtime.GC()
	if weakB.Value() != nil {
		t.Fatal("a Pool idle through two GCs still holds a value")
	}
	if p.Get(); *made != 3 {
		t.Fatalf("New ran %d times, want 3", *made)
	}
}
