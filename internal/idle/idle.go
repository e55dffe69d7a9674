//go:build go1.24

// Package idle keeps idle buffers for reuse across calls, like
// sync.Pool but without its per-P caches.
//
// A sync.Pool keeps one value per P (scheduler slot) where only that P
// can take it, so a goroutine that moved to another P since its Put
// makes a new value, and after a GC one such miss drops every value the
// GC moved to the victim cache.  For buffers of a megabyte
// taken a few times per request, each miss costs a whole buffer, and
// when it happens depends on the scheduler.  A Pool here keeps one list
// of idle values that every goroutine sees, so a workload that holds k
// values at a time makes k and then stops allocating, whatever the
// scheduler does.
//
// Idle values age as in sync.Pool: a value not taken again by the
// second GC after its Put is released, so a Pool left idle through two
// GCs holds nothing.  Before Go 1.24, which brought the weak pointers
// this needs, Pool is a sync.Pool.
package idle

import (
	"sync"
	"weak"
)

// Pool keeps idle values of type *T.  The zero value with New set is
// ready to use, and a Pool must not be copied after first use.
type Pool[T any] struct {
	// New makes a value when no idle one is left.
	New func() *T

	mu sync.Mutex
	// The values put since the last GC seen, and those put before it.
	// Only keep holds the generations strongly, so a GC releases them
	// as it releases a sync.Pool's values: a generation the GC has
	// moved to keep's victim cache dies at the next GC.
	cur, old weak.Pointer[generation[T]]
	// tick is cleared by the first GC after it was made; a Put that
	// finds it cleared starts a new generation.
	tick weak.Pointer[gcTick]
	keep sync.Pool
}

type generation[T any] struct{ idle []*T }

// gcTick holds a pointer so that it is never tiny-allocated: a tiny
// block lives while any object in it does, and would outlast the GC it
// marks.
type gcTick struct{ _ *byte }

// Get returns an idle value, the one put last, or a new one.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	x := pop(p.cur)
	if x == nil {
		x = pop(p.old)
	}
	p.mu.Unlock()
	if x == nil {
		x = p.New()
	}
	return x
}

// pop takes the last value of generation g, or returns nil.
func pop[T any](g weak.Pointer[generation[T]]) *T {
	gen := g.Value()
	if gen == nil || len(gen.idle) == 0 {
		return nil
	}
	n := len(gen.idle) - 1
	x := gen.idle[n]
	gen.idle[n] = nil
	gen.idle = gen.idle[:n]
	return x
}

// Put makes x idle.  The caller must not use x afterwards.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	gen := p.cur.Value()
	if gen == nil || p.tick.Value() == nil {
		p.old = p.cur
		gen = new(generation[T])
		p.cur = weak.Make(gen)
		p.tick = weak.Make(&gcTick{})
	}
	gen.idle = append(gen.idle, x)
	p.mu.Unlock()
	// Take a reference out of keep for each one put in, so that keep
	// holds a few, not one per Put.
	p.keep.Get()
	p.keep.Put(gen)
}
