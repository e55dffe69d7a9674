package batch

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"floatprint"
	"floatprint/internal/schryer"
)

// checkReuse runs disrupt, a call that leaves p's buffers in an unusual
// state, then normal, a call on the same Pool that returns its output,
// which must equal want, a fresh Pool's output.  Outside -race it also
// requires normal to run on the buffers disrupt gave back: the median
// over 11 rounds of the bytes normal allocates stays within budget,
// well under one block or chunk buffer.
func checkReuse(t *testing.T, name string, disrupt func(), normal func() []byte, want []byte, budget uint64) {
	t.Helper()
	for range 3 {
		disrupt()
		if got := normal(); !bytes.Equal(got, want) {
			t.Fatalf("%s, then a normal call: %d output bytes differ from a fresh Pool's %d", name, len(got), len(want))
		}
	}
	if raceEnabled {
		return
	}
	got := medianAllocBytes(disrupt, func() { normal() })
	if got > budget {
		t.Errorf("%s, then a normal call: the normal call allocated %d bytes, want at most %d", name, got, budget)
	}
	t.Logf("%s, then a normal call: %d bytes", name, got)
}

// medianAllocBytes runs before, then f, 11 times, and returns the
// median of the bytes f allocated.
func medianAllocBytes(before, f func()) uint64 {
	var ms runtime.MemStats
	per := make([]uint64, 11)
	for i := range per {
		before()
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - start
	}
	slices.Sort(per)
	return per[len(per)/2]
}

// TestConvertBytesBudget: a warm Pool's Convert allocates its result,
// one packed buffer at 24 bytes per value and the offsets, and renders
// through the Pool's chunk buffers, so 65,536 values cost about 2.1 MB
// whatever the shard count.
func TestConvertBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are not exact under -race")
	}
	values := schryer.CorpusN(65536)
	for _, shards := range []int{1, 2} {
		p := New(Config{Shards: shards})
		convert := func() {
			if _, err := p.Convert(context.Background(), values); err != nil {
				t.Fatal(err)
			}
		}
		convert()
		got := medianAllocBytes(func() {}, convert)
		if got > 2_300_000 {
			t.Errorf("shards=%d: Convert of %d values allocated %d bytes, want at most 2,300,000", shards, len(values), got)
		}
		t.Logf("shards=%d: %d bytes", shards, got)
	}
}

// TestParseAllReuseAfterFailure: a ParseAll that fails in its second
// block, and one whose long token grew the block buffer past
// ParseBlockBytes, leave the Pool's parse state holding their data; the
// next call on the Pool must read like a fresh Pool and reuse that
// state.  The grown buffer itself is not kept.
func TestParseAllReuseAfterFailure(t *testing.T) {
	cfg := Config{Shards: 2, ParseBlockBytes: 64 << 10}
	in := corpusNDJSON(schryer.CorpusN(5000))
	var want bytes.Buffer
	if _, err := New(cfg).ParseAll(context.Background(), bytes.NewReader(in), &want); err != nil {
		t.Fatal(err)
	}

	// The malformed token sits past the first block.
	secondBlockFault := append(corpusNDJSON(schryer.CorpusN(8000)), "1.5\ngarbage\n"...)
	if len(secondBlockFault) < 2*cfg.ParseBlockBytes {
		t.Fatalf("fault at byte %d, want it past the first block", len(secondBlockFault))
	}
	longToken := []byte("0.5\n1." + strings.Repeat("2", 100_000) + "\n0.25\n")

	for _, c := range []struct {
		name string
		in   []byte
		err  bool
	}{
		{"second-block parse error", secondBlockFault, true},
		{"long token grew the block", longToken, false},
	} {
		p := New(cfg)
		disrupt := func() {
			n, err := p.ParseAll(context.Background(), bytes.NewReader(c.in), discard{})
			var bpe *floatprint.BatchParseError
			if c.err && (!errors.As(err, &bpe) || n == 0) {
				t.Fatalf("%s: %d values, err = %v; want the first block's values, then a BatchParseError", c.name, n, err)
			}
			if !c.err && (err != nil || n != 3) {
				t.Fatalf("%s: %d values, err = %v; want 3 values", c.name, n, err)
			}
		}
		var out bytes.Buffer
		normal := func() []byte {
			out.Reset()
			if _, err := p.ParseAll(context.Background(), bytes.NewReader(in), &out); err != nil {
				t.Fatal(err)
			}
			return out.Bytes()
		}
		checkReuse(t, c.name, disrupt, normal, want.Bytes(), 16<<10)
	}
}

// TestWriteAllReuseAfterStop: a WriteAll cancelled mid-stream, and one
// a writer error stops, leave chunk buffers in the Pool with their
// chunks in them; the next call on the Pool, a WriteAll or a Convert
// (which writes no separators), must write like a fresh Pool and reuse
// those buffers.
func TestWriteAllReuseAfterStop(t *testing.T) {
	values := testCorpus(120000)
	small := testCorpus(20000)
	for _, shards := range []int{1, 2, 4} {
		cfg := Config{Shards: shards, Sep: []byte{'\n'}}
		var want bytes.Buffer
		if _, err := New(cfg).WriteAll(context.Background(), small, &want); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg).Convert(context.Background(), small)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			stop func(p *Pool) error
		}{
			{"cancelled mid-stream", func(p *Pool) error {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				_, err := p.WriteAll(ctx, values, &cancelAfterWriter{n: 3, cancel: cancel})
				if !errors.Is(err, context.Canceled) {
					return err
				}
				return nil
			}},
			{"writer error", func(p *Pool) error {
				if _, err := p.WriteAll(context.Background(), values, &failingWriter{}); err == nil || err.Error() != "sink full" {
					return err
				}
				return nil
			}},
		} {
			p := New(cfg)
			disrupt := func() {
				if err := c.stop(p); err != nil {
					t.Fatalf("shards=%d %s: err = %v", shards, c.name, err)
				}
			}
			var out bytes.Buffer
			normal := func() []byte {
				out.Reset()
				if _, err := p.WriteAll(context.Background(), small, &out); err != nil {
					t.Fatal(err)
				}
				return out.Bytes()
			}
			checkReuse(t, c.name, disrupt, normal, want.Bytes(), 16<<10)
			convert := func() []byte {
				res, err := p.Convert(context.Background(), small)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Offsets, fresh.Offsets) {
					t.Fatalf("shards=%d %s, then Convert: offsets differ from a fresh Pool's", shards, c.name)
				}
				return res.Buf
			}
			// Convert allocates its packed buffer and offsets, and no
			// chunk buffer.
			checkReuse(t, c.name+" (Convert)", disrupt, convert, fresh.Buf, uint64(len(small))*(perValueBytes+8)+16<<10)
		}
	}
}

// TestConcurrentReuseRace runs ParseAll, WriteAll and Convert calls
// with different inputs on one Pool at once, so that buffers pass
// between calls of different sizes while others run; every call must
// produce what a fresh Pool produces for its input.  Run it under -race.
func TestConcurrentReuseRace(t *testing.T) {
	cfg := Config{Shards: 4, ChunkSize: 256, Sep: []byte{'\n'}, ParseBlockBytes: 8 << 10}
	corpus := testCorpus(12000)
	type job struct {
		values []float64
		text   []byte
		packed []byte                  // ParseAll's output for text
		lines  []byte                  // WriteAll's output for values
		res    *floatprint.BatchResult // Convert's output for values
	}
	var jobs []job
	for _, n := range []int{1, 700, 3000, 12000} {
		j := job{values: corpus[len(corpus)-n:], text: corpusNDJSON(corpus[:n])}
		var packed, lines bytes.Buffer
		if _, err := New(cfg).ParseAll(context.Background(), bytes.NewReader(j.text), &packed); err != nil {
			t.Fatal(err)
		}
		if _, err := New(cfg).WriteAll(context.Background(), j.values, &lines); err != nil {
			t.Fatal(err)
		}
		res, err := New(cfg).Convert(context.Background(), j.values)
		if err != nil {
			t.Fatal(err)
		}
		j.packed, j.lines, j.res = packed.Bytes(), lines.Bytes(), res
		jobs = append(jobs, j)
	}

	p := New(cfg)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			for i := range 6 {
				j := jobs[(g+i)%len(jobs)]
				out.Reset()
				switch (g + i) % 3 {
				case 0:
					if _, err := p.ParseAll(context.Background(), bytes.NewReader(j.text), &out); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(out.Bytes(), j.packed) {
						t.Errorf("concurrent ParseAll of %d values differs from a fresh Pool's", len(j.values))
					}
				case 1:
					if _, err := p.WriteAll(context.Background(), j.values, &out); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(out.Bytes(), j.lines) {
						t.Errorf("concurrent WriteAll of %d values differs from a fresh Pool's", len(j.values))
					}
				default:
					res, err := p.Convert(context.Background(), j.values)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(res.Buf, j.res.Buf) || !slices.Equal(res.Offsets, j.res.Offsets) {
						t.Errorf("concurrent Convert of %d values differs from a fresh Pool's", len(j.values))
					}
				}
			}
		}()
	}
	wg.Wait()
}
