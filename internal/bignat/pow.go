package bignat

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pow returns x**n computed by binary exponentiation.
// Pow(0, 0) == 1, matching the usual convention for integer powers.
func Pow(x Nat, n uint) Nat {
	result := Nat{1}
	base := x.Clone()
	for n > 0 {
		if n&1 == 1 {
			result = Mul(result, base)
		}
		n >>= 1
		if n > 0 {
			base = Mul(base, base)
		}
	}
	return result
}

// PowUint returns b**n for a single-word base.
func PowUint(b uint64, n uint) Nat {
	return Pow(FromUint64(b), n)
}

// PowCache memoizes successive powers of a fixed base, mirroring the
// expt-t lookup table from Figure 2 of the paper ("a table to look up the
// value of 10^k for 0 <= k <= 325").  Unlike the paper's fixed-size vector
// it grows on demand and works for any base, so it also serves bases 2-36
// and the wider synthetic formats.  Growth stops at the limit given to
// NewPowCache: a power above it is computed afresh on every call and not
// kept, so one request for a huge exponent costs time in proportion to
// that request and leaves no memory behind.  The zero value is not
// usable; call NewPowCache.
//
// The cache is safe for concurrent use and its read path is lock-free: the
// table of known powers is an immutable snapshot published through an
// atomic pointer.  Growing the table copies the slice of (shared, already
// immutable) power values, extends the copy, and atomically publishes it;
// only concurrent growers serialize on a mutex.  A cache preloaded past
// the largest power its workload needs (see Preload) therefore never takes
// a lock in steady state.
type PowCache struct {
	base  Nat
	limit uint                  // largest exponent kept
	snap  atomic.Pointer[[]Nat] // (*snap)[i] == base**i; immutable once published
	mu    sync.Mutex            // serializes growth only; readers never take it
}

// NewPowCache returns a cache of powers of base that keeps exponents up
// to and including limit.
func NewPowCache(base uint64, limit uint) *PowCache {
	c := &PowCache{base: FromUint64(base), limit: limit}
	p := []Nat{{1}}
	c.snap.Store(&p)
	return c
}

// Pow returns base**n, computing and caching any powers not yet known up
// to the cache's limit; above the limit the power is computed and not
// kept.  The returned Nat may be shared with the cache and must not be
// modified; all bignat operations treat operands as read-only, so normal
// use is safe.
func (c *PowCache) Pow(n uint) Nat {
	p := *c.snap.Load()
	if n < uint(len(p)) {
		return p[n]
	}
	return c.grow(n)
}

// grow extends the table to cover n under the grow lock and publishes the
// extended copy, or for n above the limit computes base**n without
// keeping it.  The previous snapshot's entries are shared, not copied: a
// Nat in the table is immutable for its lifetime.
func (c *PowCache) grow(n uint) Nat {
	if n > c.limit {
		return Pow(c.base, n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := *c.snap.Load()
	if n < uint(len(p)) {
		return p[n] // another grower got here first
	}
	np := make([]Nat, n+1)
	copy(np, p)
	for i := len(p); i <= int(n); i++ {
		np[i] = Mul(np[i-1], c.base)
	}
	c.snap.Store(&np)
	return np[n]
}

// Preload ensures every power up to and including min(n, limit) is
// cached, so that later Pow calls up to n are lock-free reads.  Callers
// that know their workload's largest exponent (e.g. base-10 conversion of
// binary64 values) preload once at startup and never pay the grow lock
// again.
func (c *PowCache) Preload(n uint) {
	c.Pow(min(n, c.limit))
}

// Cached reports how many powers (exponents 0..Cached()-1) are currently
// available without growing.
func (c *PowCache) Cached() int {
	return len(*c.snap.Load())
}

// Base returns the cache's base as a Nat (shared, read-only).
func (c *PowCache) Base() Nat { return c.base }

// powTables holds the one shared power table per base 2..36, the analog
// of the paper's expt-t lookup table (Figure 2).  The exact printing core,
// the exact reader, the format descriptors and the evaluation baselines
// all read from it.  Reads are a single atomic snapshot load; the tables
// below are preloaded past the largest exponent a binary64 conversion
// can request, so steady-state traffic in the common bases never takes
// the grow lock at all.
var powTables [37]*PowCache

// Preload spans: binary64 denormals put e >= -1074, so the input side
// needs 2^(1-e) up to 2^1075; on the output side |k| <= ~343 for base 10
// (the paper's table stops at 10^325 for the narrower K&R double range),
// with margin for fixed-format positions beyond the value's own scale.
//
// PowersLimit bounds what any shared table keeps.  It covers every
// exponent a binary64 conversion in bases 2–36 needs (at most 1075, in
// base 2) and every fixed-format position the serving layer admits (|pos|
// and n up to 1100).  Larger exponents, from wider formats, from a
// library caller asking for tens of thousands of fixed digits, or from a
// parse of thousands of digits, are computed per call: without the bound
// one FixedDigits(1.0/3, 30000) left every power of ten up to 10^30000
// cached for the life of the process (~176 MB).
const (
	preloadPow2  = 1100
	preloadPow10 = 400
	preloadPow16 = 300
	PowersLimit  = 2048
)

func init() {
	for b := 2; b <= 36; b++ {
		powTables[b] = NewPowCache(uint64(b), PowersLimit)
	}
	powTables[2].Preload(preloadPow2)
	powTables[10].Preload(preloadPow10)
	powTables[16].Preload(preloadPow16)
}

// Powers returns the shared power table for base, 2 <= base <= 36.  It
// keeps exponents up to PowersLimit.  Every Nat it returns is shared and
// immutable: callers must not modify one, and must copy it before it can
// escape into a value a caller owns.
func Powers(base int) *PowCache {
	if base < 2 || base > 36 {
		panic(fmt.Sprintf("bignat: no power table for base %d", base))
	}
	return powTables[base]
}
