package bignat

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPowCacheConcurrentGrow exercises the lock-free read path and the
// copy-on-grow publication under many goroutines racing to extend the
// table in interleaved order.  Run under -race to certify the atomic
// snapshot discipline.
func TestPowCacheConcurrentGrow(t *testing.T) {
	c := NewPowCache(7, 1000)
	want := make([]Nat, 301)
	want[0] = Nat{1}
	for i := 1; i <= 300; i++ {
		want[i] = Mul(want[i-1], Nat{7})
	}

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				n := uint(rng.Intn(301))
				if got := c.Pow(n); Cmp(got, want[n]) != 0 {
					t.Errorf("Pow(%d) wrong under concurrency", n)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if c.Cached() != 301 {
		t.Errorf("Cached() = %d, want 301", c.Cached())
	}
}

// TestPowCachePreload pins the steady-state guarantee: after Preload(n),
// every Pow up to n is served from the existing snapshot without growth.
func TestPowCachePreload(t *testing.T) {
	c := NewPowCache(10, 1000)
	c.Preload(50)
	if got := c.Cached(); got != 51 {
		t.Fatalf("Cached() after Preload(50) = %d, want 51", got)
	}
	snap := c.Pow(50)
	for i := uint(0); i <= 50; i++ {
		c.Pow(i)
	}
	if c.Cached() != 51 {
		t.Errorf("reads below the preload grew the cache to %d entries", c.Cached())
	}
	// The returned Nat must be the shared snapshot entry, not a copy per
	// call (the read path allocates nothing).
	if again := c.Pow(50); &again[0] != &snap[0] {
		t.Errorf("Pow(50) returned a fresh copy; read path should share the snapshot")
	}
}

// TestPowCacheLimit: powers above the limit are computed correctly but
// never kept, and Preload stops at the limit, so no request can grow the
// table past limit+1 entries.
func TestPowCacheLimit(t *testing.T) {
	c := NewPowCache(10, 50)
	for _, n := range []uint{80, 51, 1000, 50} {
		if got := c.Pow(n); Cmp(got, PowUint(10, n)) != 0 {
			t.Errorf("Pow(%d) wrong", n)
		}
	}
	c.Preload(500)
	if got := c.Cached(); got != 51 {
		t.Errorf("Cached() = %d after requests past the limit, want 51", got)
	}
	// Above the limit nothing is kept: each call computes its own value.
	if a, b := c.Pow(60), c.Pow(60); &a[0] == &b[0] {
		t.Errorf("Pow(60) above the limit returned a shared value")
	}
}

// TestSharedPowers: one table per base 2..36, bounded at PowersLimit,
// returning the same shared entries to every caller; other bases panic.
func TestSharedPowers(t *testing.T) {
	for base := 2; base <= 36; base++ {
		p := Powers(base)
		if p != Powers(base) {
			t.Fatalf("Powers(%d) returned two different tables", base)
		}
		if got := p.Pow(40); Cmp(got, PowUint(uint64(base), 40)) != 0 {
			t.Errorf("Powers(%d).Pow(40) wrong", base)
		}
		if a, b := p.Pow(40), p.Pow(40); &a[0] != &b[0] {
			t.Errorf("Powers(%d).Pow(40) returned a copy, want the shared entry", base)
		}
	}
	p := Powers(5)
	p.Pow(PowersLimit + 10)
	if n := p.Cached(); n > PowersLimit+1 {
		t.Errorf("Powers(5) keeps %d entries after a request past the limit, want at most %d", n, PowersLimit+1)
	}
	for _, base := range []int{0, 1, 37} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Powers(%d) did not panic", base)
				}
			}()
			Powers(base)
		}()
	}
}
