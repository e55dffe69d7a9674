//go:build go1.24

package idle

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// counted returns a Pool of *[]byte whose New counts its calls.
func counted() (*Pool[[]byte], *int) {
	made := new(int)
	p := &Pool[[]byte]{New: func() *[]byte {
		*made++
		b := make([]byte, 0, 1<<10)
		return &b
	}}
	return p, made
}

// TestGetSeesEveryPut puts values from many goroutines, which the
// scheduler spreads over its Ps, and takes them all back on one: a
// sync.Pool would make new ones for the values left in other Ps'
// caches.
func TestGetSeesEveryPut(t *testing.T) {
	// With no GC, no generation is released, even under -race.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, made := counted()
	const n = 64
	vals := make([]*[]byte, n)
	for i := range vals {
		vals[i] = p.Get()
	}
	var wg sync.WaitGroup
	for _, v := range vals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.Gosched()
			p.Put(v)
		}()
	}
	wg.Wait()
	for range n {
		p.Get()
	}
	if *made != n {
		t.Fatalf("New ran %d times for %d values held at once, want %d", *made, n, n)
	}
}

// TestConcurrentUse takes and gives back values on several goroutines
// while GCs start new generations: no value is held twice at once.
func TestConcurrentUse(t *testing.T) {
	type value struct{ held atomic.Bool }
	p := &Pool[value]{New: func() *value { return new(value) }}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				v := p.Get()
				if !v.held.CompareAndSwap(false, true) {
					t.Error("a value was handed out while held")
					return
				}
				if g == 0 && i%500 == 0 {
					runtime.GC()
				}
				v.held.Store(false)
				p.Put(v)
			}
		}()
	}
	wg.Wait()
}
