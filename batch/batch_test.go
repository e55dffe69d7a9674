package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"floatprint"
	"floatprint/internal/schryer"
)

// referenceConcat renders values one by one through the public
// single-value API: the byte stream every batch configuration must
// reproduce exactly.
func referenceConcat(values []float64) ([]byte, []int) {
	buf := make([]byte, 0, len(values)*perValueBytes)
	offsets := make([]int, len(values)+1)
	for i, v := range values {
		buf = floatprint.AppendShortest(buf, v)
		offsets[i+1] = len(buf)
	}
	return buf, offsets
}

// testCorpus mixes Schryer values with specials and signs so the batch
// path also covers NaN/Inf/±0 and the exact-fallback values.
func testCorpus(n int) []float64 {
	values := schryer.CorpusN(n)
	out := make([]float64, 0, len(values)+8)
	out = append(out, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1))
	for i, v := range values {
		if i%3 == 1 {
			v = -v
		}
		out = append(out, v)
	}
	return out
}

// TestConvertMatchesAppendShortestFullCorpus is the acceptance
// differential: over the full 250,680-value Schryer corpus, the batch
// engine's packed output is byte-identical to per-value AppendShortest,
// for one shard and for NumCPU shards.
func TestConvertMatchesAppendShortestFullCorpus(t *testing.T) {
	corpus := schryer.Corpus()
	if testing.Short() {
		corpus = corpus[:20000]
	}
	wantBuf, wantOffsets := referenceConcat(corpus)
	for _, shards := range []int{1, runtime.NumCPU()} {
		p := New(Config{Shards: shards})
		res, err := p.Convert(context.Background(), corpus)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !bytes.Equal(res.Buf, wantBuf) {
			t.Fatalf("shards=%d: packed output differs from per-value AppendShortest", shards)
		}
		if len(res.Offsets) != len(wantOffsets) {
			t.Fatalf("shards=%d: %d offsets, want %d", shards, len(res.Offsets), len(wantOffsets))
		}
		for i := range wantOffsets {
			if res.Offsets[i] != wantOffsets[i] {
				t.Fatalf("shards=%d: offset[%d] = %d, want %d",
					shards, i, res.Offsets[i], wantOffsets[i])
			}
		}
	}
}

func TestConvertShardsSpecialsAndSigns(t *testing.T) {
	values := testCorpus(5000)
	wantBuf, wantOffsets := referenceConcat(values)
	for _, shards := range []int{1, 2, 3, 7, runtime.NumCPU(), 64} {
		for _, chunk := range []int{1, 7, 128, 4096} {
			res, err := New(Config{Shards: shards, ChunkSize: chunk}).Convert(context.Background(), values)
			if err != nil {
				t.Fatalf("shards=%d chunk=%d: %v", shards, chunk, err)
			}
			if !bytes.Equal(res.Buf, wantBuf) {
				t.Fatalf("shards=%d chunk=%d: output differs", shards, chunk)
			}
			if res.Len() != len(values) {
				t.Fatalf("shards=%d chunk=%d: Len = %d, want %d", shards, chunk, res.Len(), len(values))
			}
			if !slices.Equal(res.Offsets, wantOffsets) {
				t.Fatalf("shards=%d chunk=%d: offsets differ from per-value AppendShortest", shards, chunk)
			}
			// Value accessor agrees with single-value conversion.
			for _, i := range []int{0, 1, 2, 3, 4, 17, len(values) - 1} {
				want := floatprint.AppendShortest(nil, values[i])
				if got := res.Value(i); !bytes.Equal(got, want) {
					t.Fatalf("shards=%d chunk=%d: Value(%d) = %q, want %q", shards, chunk, i, got, want)
				}
			}
		}
	}
}

func TestConvertEmptyAndTiny(t *testing.T) {
	res, err := New(Config{}).Convert(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || len(res.Buf) != 0 {
		t.Fatalf("empty input: %d values, %d bytes", res.Len(), len(res.Buf))
	}
	res, err = New(Config{}).Convert(context.Background(), []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.Value(0)); got != "0.3" {
		t.Fatalf("Value(0) = %q", got)
	}
}

func TestBatchShortestSequentialAPI(t *testing.T) {
	values := testCorpus(2000)
	wantBuf, wantOffsets := referenceConcat(values)
	res := floatprint.BatchShortest(values)
	if !bytes.Equal(res.Buf, wantBuf) {
		t.Fatal("BatchShortest output differs from per-value AppendShortest")
	}
	for i := range wantOffsets {
		if res.Offsets[i] != wantOffsets[i] {
			t.Fatalf("offset[%d] = %d, want %d", i, res.Offsets[i], wantOffsets[i])
		}
	}
	var sink bytes.Buffer
	if _, err := res.WriteTo(&sink); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sink.Bytes(), wantBuf) {
		t.Fatal("WriteTo differs")
	}
}

func TestWriteAllMatchesConvert(t *testing.T) {
	values := testCorpus(30000)
	wantBuf, _ := referenceConcat(values)
	for _, shards := range []int{1, 2, runtime.NumCPU()} {
		for _, chunk := range []int{1, 7, 1024} {
			var sink bytes.Buffer
			p := New(Config{Shards: shards, ChunkSize: chunk})
			n, err := p.WriteAll(context.Background(), values, &sink)
			if err != nil {
				t.Fatalf("shards=%d chunk=%d: %v", shards, chunk, err)
			}
			if n != int64(len(wantBuf)) || !bytes.Equal(sink.Bytes(), wantBuf) {
				t.Fatalf("shards=%d chunk=%d: wrote %d bytes, output differs", shards, chunk, n)
			}
		}
	}
}

func TestWriteAllSeparator(t *testing.T) {
	values := []float64{1, 0.3, 1e23, math.NaN()}
	var sink bytes.Buffer
	p := New(Config{Shards: 2, ChunkSize: 1, Sep: []byte{'\n'}})
	if _, err := p.WriteAll(context.Background(), values, &sink); err != nil {
		t.Fatal(err)
	}
	want := "1\n0.3\n1e23\nNaN\n"
	if sink.String() != want {
		t.Fatalf("got %q, want %q", sink.String(), want)
	}
}

func TestConvertCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Config{}).Convert(ctx, schryer.CorpusN(10000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Convert: err = %v", err)
	}

	// Cancel mid-flight: a tiny chunk size makes workers observe it.
	values := schryer.CorpusN(200000)
	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := New(Config{Shards: 2, ChunkSize: 16}).Convert(ctx, values)
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v", err)
	}
}

func TestWriteAllCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink bytes.Buffer
	if _, err := New(Config{Shards: 4}).WriteAll(ctx, schryer.CorpusN(50000), &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled WriteAll: err = %v", err)
	}
}

// cancelAfterWriter cancels its context once n writes have landed,
// then keeps accepting: the mid-stream cancellation a network peer
// disconnect produces, with the sink still healthy.
type cancelAfterWriter struct {
	bytes.Buffer
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Buffer.Write(p)
}

// TestWriteAllCancelMidStreamPrefix pins the writer-side cancel
// contract: whatever a canceled WriteAll wrote is byte-identical to a
// prefix of the sequential per-value output, the returned count equals
// the bytes that reached the writer, and no worker goroutines outlive
// the call.
func TestWriteAllCancelMidStreamPrefix(t *testing.T) {
	values := testCorpus(120000)
	want, _ := referenceConcat(values)

	baseline := runtime.NumGoroutine()
	for _, shards := range []int{1, 2, runtime.NumCPU()} {
		for _, after := range []int{1, 3, 7} {
			ctx, cancel := context.WithCancel(context.Background())
			sink := &cancelAfterWriter{n: after, cancel: cancel}
			p := New(Config{Shards: shards, ChunkSize: 512})
			n, err := p.WriteAll(ctx, values, sink)
			cancel()

			got := sink.Bytes()
			if n != int64(len(got)) {
				t.Fatalf("shards=%d after=%d: returned %d bytes, writer saw %d", shards, after, n, len(got))
			}
			if !bytes.HasPrefix(want, got) {
				t.Fatalf("shards=%d after=%d: canceled output is not a prefix of sequential output", shards, after)
			}
			// The cancel lands mid-stream (120000 values / 512 per chunk
			// leaves plenty unwritten), so WriteAll must report it.
			if len(got) == len(want) {
				t.Fatalf("shards=%d after=%d: whole stream written despite cancel", shards, after)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("shards=%d after=%d: err = %v, want context.Canceled", shards, after, err)
			}
		}
	}

	// Leak check: every worker and closer goroutine spawned by the
	// canceled calls must be gone (sync.Pool buffers may linger; live
	// goroutines may not).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // flush any goroutines parked in finalizer states
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after canceled WriteAll: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// failingWriter fails after the first write, exercising the writer-error
// shutdown path (cancel, drain, no deadlock).
type failingWriter struct{ writes int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestWriteAllWriterError(t *testing.T) {
	values := schryer.CorpusN(50000)
	for _, shards := range []int{1, runtime.NumCPU()} {
		fw := &failingWriter{}
		_, err := New(Config{Shards: shards, ChunkSize: 512}).WriteAll(context.Background(), values, fw)
		if err == nil || err.Error() != "sink full" {
			t.Fatalf("shards=%d: err = %v, want sink full", shards, err)
		}
	}
}

// TestConcurrentBatchRace is the -race twin: several goroutines run
// Convert and WriteAll on one shared Pool at once, with telemetry
// enabled so the counter hooks race-test too.  Each shard folds its
// chunks' kernel tallies into the shared counters, so the concurrent
// calls must move every counter by exactly what the same calls made one
// after another move it by.
func TestConcurrentBatchRace(t *testing.T) {
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)

	values := testCorpus(8000)
	wantBuf, _ := referenceConcat(values)
	p := New(Config{Shards: 4, ChunkSize: 256})
	const calls = 6
	call := func(g int) {
		if g%2 == 0 {
			res, err := p.Convert(context.Background(), values)
			if err != nil {
				t.Errorf("Convert: %v", err)
				return
			}
			if !bytes.Equal(res.Buf, wantBuf) {
				t.Error("concurrent Convert output differs")
			}
		} else {
			var sink bytes.Buffer
			if _, err := p.WriteAll(context.Background(), values, &sink); err != nil {
				t.Errorf("WriteAll: %v", err)
				return
			}
			if !bytes.Equal(sink.Bytes(), wantBuf) {
				t.Error("concurrent WriteAll output differs")
			}
		}
	}

	before := floatprint.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < calls; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			call(g)
		}(g)
	}
	wg.Wait()
	concurrent := floatprint.Snapshot().Sub(before)

	before = floatprint.Snapshot()
	for g := 0; g < calls; g++ {
		call(g)
	}
	sequential := floatprint.Snapshot().Sub(before)
	if concurrent != sequential {
		t.Errorf("concurrent calls counted\n%v\nthe same calls in sequence counted\n%v", concurrent, sequential)
	}
	if sequential.RyuHits == 0 || sequential.BatchValues != calls*uint64(len(values)) {
		t.Errorf("calls counted too little: %+v", sequential)
	}
}

// TestBatchTelemetry pins the batch engines' counting exactly.  Every
// batch print entry point, at one shard and at several with a ragged
// last chunk, moves every path counter by exactly what a per-value
// AppendShortest loop over the same values moves it by, BatchValues by
// the value count and BatchBytes by the output length.  The engines sum
// the kernel's hits per chunk and add each sum once, so a lost or
// doubled chunk tally fails here.
func TestBatchTelemetry(t *testing.T) {
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)

	// testCorpus leads with ±0, NaN and ±Inf; 0x1p-25 is a final-digit
	// tie, which the kernel decides like any other value: every nonzero
	// finite value is one Ryū hit, and the exact core never runs.
	values := append(testCorpus(3000), 0x1p-25)
	finite := 0
	for _, v := range values {
		if v != 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			finite++
		}
	}
	before := floatprint.Snapshot()
	want, _ := referenceConcat(values)
	perValue := floatprint.Snapshot().Sub(before)
	if perValue != (floatprint.Stats{RyuHits: uint64(finite)}) {
		t.Fatalf("per-value loop counted %+v, want %d ryu hits and nothing else", perValue, finite)
	}

	ctx := context.Background()
	type run struct {
		name    string
		convert func() ([]byte, error)
	}
	runs := []run{{"BatchShortest", func() ([]byte, error) {
		return floatprint.BatchShortest(values).Buf, nil
	}}}
	for _, shards := range []int{1, 4} {
		p := New(Config{Shards: shards, ChunkSize: 256})
		runs = append(runs,
			run{fmt.Sprintf("Convert/shards=%d", shards), func() ([]byte, error) {
				res, err := p.Convert(ctx, values)
				if err != nil {
					return nil, err
				}
				return res.Buf, nil
			}},
			run{fmt.Sprintf("WriteAll/shards=%d", shards), func() ([]byte, error) {
				var sink bytes.Buffer
				_, err := p.WriteAll(ctx, values, &sink)
				return sink.Bytes(), err
			}})
	}
	for _, r := range runs {
		before := floatprint.Snapshot()
		out, err := r.convert()
		d := floatprint.Snapshot().Sub(before)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: output differs from per-value AppendShortest", r.name)
		}
		if d.BatchValues != uint64(len(values)) || d.BatchBytes != uint64(len(out)) {
			t.Errorf("%s: BatchValues/BatchBytes moved by %d/%d, want %d/%d",
				r.name, d.BatchValues, d.BatchBytes, len(values), len(out))
		}
		d.BatchValues, d.BatchBytes = 0, 0
		if d != perValue {
			t.Errorf("%s counted\n%v\nper-value AppendShortest counted\n%v", r.name, d, perValue)
		}
	}
}

// Parallel benchmarks: batch throughput by shard count.  Run with
// -cpu=1,2,4,... or read the per-shard rows directly.  Each row measures
// a warm Pool, as BenchmarkBatchWriteAll's do: Convert takes the Pool's
// chunk buffers too.
//
// The allocation columns count calls made after the timed loop, not the
// loop itself: a 2.1 MB call triggers about one GC per call, a GC
// empties the Pool's sync.Pools, and their refills move the loop's
// average from run to run (11 or 12 allocs/op at two shards).
// callAllocs holds the collector off and takes the median of per-call
// counts, which reads the call's own allocations every run.
func BenchmarkBatchConvert(b *testing.B) {
	values := schryer.CorpusN(65536)
	for _, shards := range distinct(1, 2, 4, runtime.NumCPU()) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := New(Config{Shards: shards})
			convert := func() {
				if _, err := p.Convert(context.Background(), values); err != nil {
					b.Fatal(err)
				}
			}
			for range 3 {
				convert()
			}
			b.SetBytes(int64(len(values) * 8))
			b.ReportAllocs() // prints the columns without -benchmem; callAllocs sets them
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				convert()
			}
			b.StopTimer()
			b.ReportMetric(float64(len(values))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
			allocs, bytes := callAllocs(convert)
			b.ReportMetric(allocs, "allocs/op")
			b.ReportMetric(bytes, "B/op")
		})
	}
}

// distinct returns ns without repeats, in order, so a benchmark runs
// each shard count once whatever runtime.NumCPU is: a repeated count
// would time the same row again, as its "#01" twin.
func distinct(ns ...int) []int {
	var out []int
	for _, n := range ns {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// callAllocs runs f five times with the collector held off and returns
// the median of the per-call allocation counts and of the per-call
// bytes.
func callAllocs(f func()) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	var counts, sizes [5]uint64
	for i := range counts {
		runtime.ReadMemStats(&ms)
		mallocs, total := ms.Mallocs, ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		counts[i], sizes[i] = ms.Mallocs-mallocs, ms.TotalAlloc-total
	}
	slices.Sort(counts[:])
	slices.Sort(sizes[:])
	return float64(counts[2]), float64(sizes[2])
}

// discard is io.Discard without the interface-dispatch noise.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkBatchWriteAll runs with telemetry off (the library default)
// and, under stats=on, with it on as fpserved ships, where shards add
// their kernel tallies to the shared counters.  Each row measures a
// warm Pool: one untimed call fills the chunk buffers a fresh Pool
// builds on its first call, so the allocation columns read the per-call
// cost at any b.N.
func BenchmarkBatchWriteAll(b *testing.B) {
	values := schryer.CorpusN(65536)
	shardRows := func(b *testing.B) {
		for _, shards := range distinct(1, runtime.NumCPU()) {
			b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
				p := New(Config{Shards: shards, Sep: []byte{'\n'}})
				for range 3 {
					if _, err := p.WriteAll(context.Background(), values, discard{}); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(len(values) * 8))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.WriteAll(context.Background(), values, discard{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(values))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
			})
		}
	}
	shardRows(b)
	b.Run("stats=on", func(b *testing.B) {
		prev := floatprint.SetStatsEnabled(true)
		defer floatprint.SetStatsEnabled(prev)
		shardRows(b)
	})
}

func BenchmarkBatchSequentialReference(b *testing.B) {
	values := schryer.CorpusN(65536)
	b.SetBytes(int64(len(values) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		floatprint.BatchShortest(values)
	}
	b.ReportMetric(float64(len(values))*float64(b.N)/b.Elapsed().Seconds(), "values/s")
}
