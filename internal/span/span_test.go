package span

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestSpanLifecycle covers the basic shape: a root with two nested
// children assembles one trace whose records carry the shared trace
// ID, correct parent links, names, and positive durations, root first
// with the caller's record.
func TestSpanLifecycle(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Seed: 42})
	root := tr.StartRequest("")

	child := root.StartChild("convert")
	child.SetAttrInt("digits", 17)
	grand := child.StartChild("render")
	grand.End()
	child.End()

	if reason := root.Keep(200, 0, time.Hour); reason != "head" {
		t.Fatalf("Keep reason = %q, want head (SampleEvery=1)", reason)
	}
	start := time.Now()
	tc := root.Trace(Record{Name: "/v1/shortest", Start: start, DurationMS: 1.5,
		Attrs: []Attr{{"http.method", "GET"}}}, "head")
	if tc.Route != "/v1/shortest" || tc.Reason != "head" || tc.TraceID != root.TraceID() ||
		tc.DurationMS != 1.5 {
		t.Fatalf("trace = %+v, want route /v1/shortest reason head id %s duration 1.5", tc, root.TraceID())
	}
	if len(tc.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tc.Spans))
	}
	rootRec := tc.Spans[0]
	if rootRec.Name != "/v1/shortest" || rootRec.ParentID != "" || rootRec.SpanID == "" ||
		!rootRec.Start.Equal(start) || rootRec.DurationMS != 1.5 {
		t.Fatalf("first record %+v is not the root span", rootRec)
	}
	if len(rootRec.Attrs) != 1 || rootRec.Attrs[0] != (Attr{"http.method", "GET"}) {
		t.Fatalf("root attrs = %v, want http.method=GET", rootRec.Attrs)
	}
	byName := map[string]Record{}
	for _, r := range tc.Spans {
		if r.TraceID != tc.TraceID {
			t.Fatalf("span %s carries trace %s, want %s", r.Name, r.TraceID, tc.TraceID)
		}
		if r.DurationMS < 0 {
			t.Fatalf("span %s has negative duration %v", r.Name, r.DurationMS)
		}
		byName[r.Name] = r
	}
	if byName["convert"].ParentID != rootRec.SpanID {
		t.Errorf("convert parent = %s, want root %s", byName["convert"].ParentID, rootRec.SpanID)
	}
	if byName["render"].ParentID != byName["convert"].SpanID {
		t.Errorf("render parent = %s, want convert %s", byName["render"].ParentID, byName["convert"].SpanID)
	}
	if byName["convert"].Attrs[0] != (Attr{"digits", "17"}) {
		t.Errorf("convert attrs = %v, want digits=17", byName["convert"].Attrs)
	}
}

// TestNilSpanSafety: every method on a nil span (the tracing-off
// path) must be a no-op, and its trace is the caller's root record
// alone, with no trace identity.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	if s.Recording() || s.TraceID() != "" {
		t.Fatal("nil span reports live state")
	}
	s.SetAttr("k", "v")
	s.SetAttrInt("n", 1)
	s.End()
	if c := s.StartChild("x"); c != nil {
		t.Fatalf("nil StartChild = %v, want nil", c)
	}
	root := Record{Name: "/v1/shortest", DurationMS: 2, Attrs: []Attr{{"status", "500"}}}
	tc := s.Trace(root, "error")
	if tc.TraceID != "" || tc.Route != "/v1/shortest" || tc.DurationMS != 2 || tc.Reason != "error" ||
		len(tc.Spans) != 1 || !reflect.DeepEqual(tc.Spans[0], root) {
		t.Fatalf("nil span trace = %+v, want the root record alone, no trace id", tc)
	}
}

// TestSamplingDeterministic: the head decision is a pure function of
// (seed, trace ID) — two tracers sharing a seed agree on every ID,
// rerunning is stable, and a different seed picks a different subset.
// The 1-in-N rate must land near N over many IDs.
func TestSamplingDeterministic(t *testing.T) {
	const n = 8
	a := New(Config{SampleEvery: n, Seed: 7})
	b := New(Config{SampleEvery: n, Seed: 7})
	c := New(Config{SampleEvery: n, Seed: 8})

	ids := make([]TraceID, 4096)
	gen := New(Config{Seed: 99})
	for i := range ids {
		ids[i] = gen.newTraceID()
	}

	sampled, differs := 0, 0
	for _, id := range ids {
		if a.Sampled(id) != a.Sampled(id) || a.Sampled(id) != b.Sampled(id) {
			t.Fatalf("decision for %s is not deterministic across same-seed tracers", id)
		}
		if a.Sampled(id) {
			sampled++
		}
		if a.Sampled(id) != c.Sampled(id) {
			differs++
		}
	}
	// 4096 trials at p=1/8: expect 512, allow a wide ±50% band — this
	// checks the rate is wired through, not the mixer's quality.
	if sampled < 256 || sampled > 768 {
		t.Errorf("sampled %d of 4096 at 1-in-%d, want roughly 512", sampled, n)
	}
	if differs == 0 {
		t.Error("seeds 7 and 8 made identical decisions on all 4096 IDs")
	}

	// SampleEvery 1 keeps everything; 0 keeps nothing at the head.
	if !New(Config{SampleEvery: 1}).Sampled(ids[0]) {
		t.Error("SampleEvery=1 did not sample")
	}
	if New(Config{SampleEvery: 0}).Sampled(ids[0]) {
		t.Error("SampleEvery=0 head-sampled")
	}
}

// TestAlwaysCaptureSlowAndError: with head sampling effectively off,
// slow and 5xx requests are still kept, with the right reason, traced
// or not; a fast 2xx is not.
func TestAlwaysCaptureSlowAndError(t *testing.T) {
	tr := New(Config{SampleEvery: 0, Seed: 1})
	for _, root := range []*Span{tr.StartRequest(""), nil} {
		if reason := root.Keep(200, time.Millisecond, time.Millisecond); reason != "slow" {
			t.Fatalf("slow request reason = %q, want slow", reason)
		}
		if reason := root.Keep(503, 0, time.Hour); reason != "error" {
			t.Fatalf("5xx request reason = %q, want error", reason)
		}
		if reason := root.Keep(200, time.Millisecond-1, time.Millisecond); reason != "" {
			t.Fatalf("fast 2xx reason = %q, want discarded", reason)
		}
	}
}

// TestSpanAndAttrBounds: the per-trace span cap and per-span attr cap
// hold, with the overflow counted in Dropped rather than grown.
func TestSpanAndAttrBounds(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Seed: 3})
	root := tr.StartRequest("")
	for i := 0; i < MaxSpans+6; i++ {
		c := root.StartChild(fmt.Sprintf("c%d", i))
		for j := 0; j < MaxAttrs+4; j++ {
			c.SetAttrInt("k", int64(j))
		}
		c.End()
	}
	tc := root.Trace(Record{Name: "/"}, "head")
	if len(tc.Spans) != MaxSpans+1 { // root + MaxSpans children
		t.Fatalf("kept %d spans, want %d", len(tc.Spans), MaxSpans+1)
	}
	if tc.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", tc.Dropped)
	}
	for _, r := range tc.Spans[1:] {
		if len(r.Attrs) != MaxAttrs {
			t.Fatalf("span %s kept %d attrs, want cap %d", r.Name, len(r.Attrs), MaxAttrs)
		}
	}
}

// TestDoubleEnd: ending a span twice records it once.
func TestDoubleEnd(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Seed: 5})
	root := tr.StartRequest("")
	c := root.StartChild("c")
	c.End()
	c.End()
	if tc := root.Trace(Record{Name: "/"}, "head"); len(tc.Spans) != 2 {
		t.Fatalf("spans=%d, want root and one child", len(tc.Spans))
	}
}

// TestRingEviction: the ring keeps exactly its newest n traces,
// newest-first, and the publication total keeps counting past the wrap.
func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 11; i++ {
		r.Add(&Trace{Route: fmt.Sprintf("/t%d", i)})
	}
	traces, total := r.Snapshot()
	if total != 11 {
		t.Fatalf("total = %d, want 11", total)
	}
	if len(traces) != 4 {
		t.Fatalf("kept %d, want ring cap 4", len(traces))
	}
	for i, tc := range traces {
		if want := fmt.Sprintf("/t%d", 10-i); tc.Route != want {
			t.Errorf("snapshot[%d] = %s, want %s (newest first)", i, tc.Route, want)
		}
	}
}

// TestRingConcurrent is the -race twin: many goroutines publishing
// complete traces while others snapshot.  Every snapshot must be
// consistent — non-nil traces only, each at most once, never more
// than the capacity.
func TestRingConcurrent(t *testing.T) {
	const capacity, writers, perWriter = 8, 8, 200
	r := NewRing(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Add(&Trace{Route: fmt.Sprintf("/w%d/%d", w, i)})
			}
		}(w)
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				traces, _ := r.Snapshot()
				if len(traces) > capacity {
					t.Errorf("snapshot len %d > cap %d", len(traces), capacity)
					return
				}
				seen := map[*Trace]bool{}
				for _, tc := range traces {
					if tc == nil {
						t.Error("snapshot contains nil trace")
						return
					}
					if seen[tc] {
						t.Error("snapshot contains duplicate trace")
						return
					}
					seen[tc] = true
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if _, got := r.Snapshot(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
}

// TestConcurrentChildSpans is the -race twin for the per-request
// trace buffer: children ended from several goroutines (a handler
// fanning work out) all land in the published trace.
func TestConcurrentChildSpans(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Seed: 11})
	root := tr.StartRequest("")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.StartChild(fmt.Sprintf("shard%d", i))
			c.SetAttrInt("i", int64(i))
			c.End()
		}(i)
	}
	wg.Wait()
	if tc := root.Trace(Record{Name: "/fan"}, "head"); len(tc.Spans) != 17 {
		t.Fatalf("assembled %d spans, want 17", len(tc.Spans))
	}
}

// TestIDUniqueness: IDs from one tracer never repeat or go zero over
// a large draw (the generator is a counter walk through a bijective
// mixer, so this is exact, not probabilistic).
func TestIDUniqueness(t *testing.T) {
	tr := New(Config{Seed: 1})
	seenT := map[TraceID]bool{}
	seenS := map[SpanID]bool{}
	for i := 0; i < 10000; i++ {
		tid, sid := tr.newTraceID(), tr.newSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("zero ID minted")
		}
		if seenT[tid] || seenS[sid] {
			t.Fatal("duplicate ID minted")
		}
		seenT[tid], seenS[sid] = true, true
	}
}
