package span

import "sync/atomic"

// Ring is the bounded store of completed traces, written once per
// published trace and read by the /debug/traces endpoint.
//
// Reads are lock-free: each slot is an atomic pointer to an immutable
// Trace, and a snapshot is a cursor load followed by per-slot pointer
// loads.  A writer that laps the reader mid-snapshot can only replace
// a slot's trace with a *newer* one — the reader never sees a torn
// trace, only (rarely) a near-duplicate of the freshest entries,
// which the snapshot filters by publication index.  Writers
// coordinate solely through the cursor fetch-add, so concurrent
// publications never block each other either.
type Ring struct {
	slots []slot
	// cursor counts publications; slot i%len holds publication i.
	cursor atomic.Uint64
}

// slot pairs the trace with the publication index that wrote it, so
// snapshot readers can discard entries a concurrent writer replaced
// out from under them.
type slot struct {
	seq atomic.Uint64 // publication index + 1 (0 = empty)
	t   atomic.Pointer[Trace]
}

// NewRing builds a ring holding the last n traces (n >= 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]slot, n)}
}

// Add publishes one completed trace.
func (r *Ring) Add(t *Trace) {
	i := r.cursor.Add(1) - 1
	s := &r.slots[i%uint64(len(r.slots))]
	s.t.Store(t)
	s.seq.Store(i + 1)
}

// Snapshot returns the retained traces newest-first, plus the
// all-time publication count.  It takes no locks; entries observed
// mid-overwrite (their publication index no longer matches the
// snapshot's window) are skipped rather than misordered.
func (r *Ring) Snapshot() ([]*Trace, uint64) {
	n := uint64(len(r.slots))
	end := r.cursor.Load()
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]*Trace, 0, end-start)
	for i := end; i > start; i-- {
		s := &r.slots[(i-1)%n]
		t := s.t.Load()
		if t == nil || s.seq.Load() != i {
			continue // empty, or overwritten by a writer racing this read
		}
		out = append(out, t)
	}
	return out, end
}
