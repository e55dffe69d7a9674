package stats

import (
	"sync"
	"testing"
)

func TestDisabledByDefault(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("collection enabled at package init")
	}
	RyuHits.Inc()
	RyuHits.Add(10)
	if got := Read()[RyuHits]; got != 0 {
		t.Fatalf("disabled counter advanced to %d", got)
	}
}

func TestEnableIncAndSnapshot(t *testing.T) {
	Reset()
	prev := Enable(true)
	defer Enable(prev)

	before := Read()
	RyuHits.Inc()
	DirectedRyuHits.Add(2)
	BatchValues.Add(100)
	BatchBytes.Add(2400)
	after := Read()
	var d Snapshot
	for i := range d {
		d[i] = after[i] - before[i]
	}
	if d[RyuHits] != 1 || d[DirectedRyuHits] != 2 || d[BatchValues] != 100 || d[BatchBytes] != 2400 {
		t.Fatalf("delta = %+v", d)
	}
	if d[GayHits] != 0 || d[ExactFree] != 0 {
		t.Fatalf("untouched counters moved: %+v", d)
	}

	Reset()
	if s := Read(); s != (Snapshot{}) {
		t.Fatalf("Reset left %+v", s)
	}
}

// TestConcurrentCounters is the -race twin: many goroutines hammer the
// same counters while another toggles the gate and snapshots.
func TestConcurrentCounters(t *testing.T) {
	Reset()
	prev := Enable(true)
	defer Enable(prev)

	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				RyuHits.Inc()
				BatchBytes.Add(3)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = Read()
		}
	}()
	wg.Wait()
	<-done
	if got := Read()[RyuHits]; got != workers*each {
		t.Fatalf("RyuHits = %d, want %d", got, workers*each)
	}
	if got := Read()[BatchBytes]; got != 3*workers*each {
		t.Fatalf("BatchBytes = %d, want %d", got, 3*workers*each)
	}
}
