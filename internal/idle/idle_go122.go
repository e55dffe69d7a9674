//go:build !go1.24

package idle

import "sync"

// Pool keeps idle values of type *T in a sync.Pool.  The zero value
// with New set is ready to use, and a Pool must not be copied after
// first use.
type Pool[T any] struct {
	// New makes a value when no idle one is left.
	New func() *T

	pool sync.Pool
}

// Get returns an idle value or a new one.
func (p *Pool[T]) Get() *T {
	if x, ok := p.pool.Get().(*T); ok {
		return x
	}
	return p.New()
}

// Put makes x idle.  The caller must not use x afterwards.
func (p *Pool[T]) Put(x *T) { p.pool.Put(x) }
