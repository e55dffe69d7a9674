package batch

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	stdiotest "testing/iotest"

	"floatprint"
	"floatprint/internal/schryer"
)

// corpusNDJSON renders vals as the shortest NDJSON stream the print
// side would produce — the canonical round-trip input.
func corpusNDJSON(vals []float64) []byte {
	var buf []byte
	for _, v := range vals {
		buf = floatprint.AppendShortest(buf, v)
		buf = append(buf, '\n')
	}
	return buf
}

// unpackLE decodes ParseAll's packed little-endian output.
func unpackLE(t *testing.T, b []byte) []float64 {
	t.Helper()
	if len(b)%8 != 0 {
		t.Fatalf("packed output is %d bytes, not a multiple of 8", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// TestParseAllFullCorpusDifferential is the acceptance test from the
// issue: every corpus value rendered shortest, streamed through the
// sharded block engine, and required bit-identical to per-value Parse —
// which for shortest output means bit-identical to the original value.
func TestParseAllFullCorpusDifferential(t *testing.T) {
	vals := schryer.Corpus()
	if testing.Short() {
		vals = schryer.CorpusN(20000)
	}
	// Specials and signed zero ride along: they exercise the per-value
	// fallback inside the block scanner.
	vals = append(vals, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0)
	in := corpusNDJSON(vals)

	// A small block size forces many carry/refill rounds over the corpus.
	p := New(Config{Shards: 4, ParseBlockBytes: 64 << 10})
	var out bytes.Buffer
	n, err := p.ParseAll(context.Background(), bytes.NewReader(in), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(vals)) {
		t.Fatalf("ParseAll wrote %d values, want %d", n, len(vals))
	}
	got := unpackLE(t, out.Bytes())
	for i, v := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			s := floatprint.Shortest(v)
			t.Fatalf("value %d (%q): got %x, want %x",
				i, s, math.Float64bits(got[i]), math.Float64bits(v))
		}
	}
}

// TestParseAllShardCountInvariance pins ordered output: every shard
// count and block size produces the identical packed stream.
func TestParseAllShardCountInvariance(t *testing.T) {
	in := corpusNDJSON(schryer.CorpusN(30000))
	var want bytes.Buffer
	if _, err := New(Config{Shards: 1}).ParseAll(context.Background(), bytes.NewReader(in), &want); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Shards: 2, ParseBlockBytes: 32 << 10},
		{Shards: 7, ParseBlockBytes: 100_000},
		{Shards: 16, ParseBlockBytes: 1 << 10},
	} {
		var got bytes.Buffer
		if _, err := New(cfg).ParseAll(context.Background(), bytes.NewReader(in), &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("shards=%d block=%d: output differs from single-shard", cfg.Shards, cfg.ParseBlockBytes)
		}
	}
}

// TestParseAllErrorCoordinates pins stream-level Record/Offset across
// block boundaries: the malformed token sits far enough in that earlier
// blocks were already consumed.
func TestParseAllErrorCoordinates(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10000; i++ {
		sb.WriteString(strconv.Itoa(i))
		sb.WriteByte('\n')
	}
	prefixLen := sb.Len()
	sb.WriteString("bogus\n")
	sb.WriteString("1\n2\n")
	in := sb.String()

	p := New(Config{Shards: 3, ParseBlockBytes: 4 << 10})
	var out bytes.Buffer
	n, err := p.ParseAll(context.Background(), strings.NewReader(in), &out)
	var be *floatprint.BatchParseError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchParseError", err)
	}
	if be.Record != 10000 || be.Offset != prefixLen {
		t.Fatalf("error at record %d offset %d, want record 10000 offset %d", be.Record, be.Offset, prefixLen)
	}
	// The prefix contract: everything before the failure was written.
	if n != 10000 {
		t.Fatalf("wrote %d values before the error, want 10000", n)
	}
	got := unpackLE(t, out.Bytes())
	for i := 0; i < 10000; i++ {
		if got[i] != float64(i) {
			t.Fatalf("value %d = %v before the error", i, got[i])
		}
	}
}

// TestParseAllRangeSemantics: out-of-range tokens parse to ±Inf and the
// stream continues, exactly as per-value Parse's ErrRange contract.
func TestParseAllRangeSemantics(t *testing.T) {
	var out bytes.Buffer
	n, err := New(Config{}).ParseAll(context.Background(), strings.NewReader("1e999\n-1e999\n0.5\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("wrote %d values, want 3", n)
	}
	got := unpackLE(t, out.Bytes())
	if !math.IsInf(got[0], 1) || !math.IsInf(got[1], -1) || got[2] != 0.5 {
		t.Fatalf("got %v, want [+Inf -Inf 0.5]", got)
	}
}

// TestParseAllMaxTokenBytes: a separator-free run past the cap is a
// positioned error, not unbounded buffering.
func TestParseAllMaxTokenBytes(t *testing.T) {
	long := strings.Repeat("1", 4096)
	p := New(Config{ParseBlockBytes: 512, MaxTokenBytes: 1024})
	var out bytes.Buffer
	_, err := p.ParseAll(context.Background(), strings.NewReader("7\n"+long), &out)
	var be *floatprint.BatchParseError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchParseError", err)
	}
	if be.Record != 1 || be.Offset != 2 {
		t.Fatalf("cap error at record %d offset %d, want record 1 offset 2", be.Record, be.Offset)
	}
	if !strings.Contains(err.Error(), "exceeds 1024 bytes") {
		t.Fatalf("error text %q missing cap", err)
	}
	// A reader whose last read returns its bytes together with io.EOF
	// (as net/http's request body does) meets the same cap.
	out.Reset()
	_, err = p.ParseAll(context.Background(), stdiotest.DataErrReader(strings.NewReader(strings.Repeat("1", 2000))), &out)
	if !errors.As(err, &be) || be.Record != 0 || be.Offset != 0 || !strings.Contains(err.Error(), "exceeds 1024 bytes") {
		t.Fatalf("final-read token: err = %v, want the cap error at record 0 offset 0", err)
	}
	// A separator-terminated token over the cap, inside one block, meets
	// the cap too: the value before it is written, and the error locates
	// the long token.  The last configuration is the default one, a
	// 1 MiB block and a 1 MiB cap.
	for _, c := range []struct {
		cfg Config
		n   int
	}{
		{Config{ParseBlockBytes: 512, MaxTokenBytes: 1024}, 2000},
		{Config{ParseBlockBytes: 65536, MaxTokenBytes: 1024}, 5000},
		{Config{}, 1<<20 + 4096},
	} {
		out.Reset()
		in := "1\n" + strings.Repeat("1", c.n) + "\n"
		n, err := New(c.cfg).ParseAll(context.Background(), strings.NewReader(in), &out)
		if !errors.As(err, &be) || be.Record != 1 || be.Offset != 2 || !strings.Contains(err.Error(), "token exceeds") {
			t.Fatalf("%+v, %d-byte token: n=%d err=%v, want the cap error at record 1 offset 2", c.cfg, c.n, n, err)
		}
		if n != 1 || out.Len() != 8 {
			t.Fatalf("%+v, %d-byte token: wrote %d values in %d bytes, want the value before it", c.cfg, c.n, n, out.Len())
		}
	}
	// A long-but-capped token still parses when the cap allows it.
	p = New(Config{ParseBlockBytes: 512, MaxTokenBytes: 1 << 20})
	out.Reset()
	n, err := p.ParseAll(context.Background(), strings.NewReader("7\n"+long+"\n"), &out)
	if err != nil || n != 2 {
		t.Fatalf("capped parse: n=%d err=%v", n, err)
	}
}

// TestLongToken pins the cap search against a direct scan: a token of
// exactly max bytes passes, one byte more is found at its start, and
// separator runs, a block-initial token and a block-final token are all
// measured.
func TestLongToken(t *testing.T) {
	const max = 4
	for _, c := range []struct {
		block string
		want  int
	}{
		{"", -1}, {"1234", -1}, {"12345", 0}, {"1234\n", -1}, {"12345\n", 0},
		{"1\n1234\n", -1}, {"1\n12345\n", 2}, {"1,,  \t12345", 6},
		{"12\n34\n56\n78\n9", -1}, {"1234\n1234\n123456", 10}, {"\n\n\n\n\n\n", -1},
	} {
		if got := longToken([]byte(c.block), max); got != c.want {
			t.Errorf("longToken(%q, %d) = %d, want %d", c.block, max, got, c.want)
		}
	}
}

// TestParseAllUnterminatedFinalToken: EOF without a trailing separator
// still parses the last token.
func TestParseAllUnterminatedFinalToken(t *testing.T) {
	var out bytes.Buffer
	n, err := New(Config{}).ParseAll(context.Background(), strings.NewReader("1.5\n2.5"), &out)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	got := unpackLE(t, out.Bytes())
	if got[0] != 1.5 || got[1] != 2.5 {
		t.Fatalf("got %v", got)
	}
}

func TestParseAllEmpty(t *testing.T) {
	for _, in := range []string{"", "\n\n", " \t\r\n,"} {
		var out bytes.Buffer
		n, err := New(Config{}).ParseAll(context.Background(), strings.NewReader(in), &out)
		if err != nil || n != 0 || out.Len() != 0 {
			t.Fatalf("ParseAll(%q): n=%d err=%v len=%d", in, n, err, out.Len())
		}
	}
}

func TestParseAllCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	in := corpusNDJSON(schryer.CorpusN(10000))
	if _, err := New(Config{}).ParseAll(ctx, bytes.NewReader(in), &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParseAllWriterError: a failing writer stops the stream with its
// error and the returned count stays at the values that reached it.
func TestParseAllWriterError(t *testing.T) {
	in := corpusNDJSON(schryer.CorpusN(50000))
	wantErr := errors.New("sink full")
	w := &failAfterWriter{limit: 1, err: wantErr}
	p := New(Config{Shards: 4, ParseBlockBytes: 16 << 10})
	n, err := p.ParseAll(context.Background(), bytes.NewReader(in), w)
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if n != int64(w.values) {
		t.Fatalf("returned %d values, writer accepted %d", n, w.values)
	}
}

// failAfterWriter accepts limit writes, then fails.
type failAfterWriter struct {
	writes int
	limit  int
	values int
	err    error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.writes >= w.limit {
		return 0, w.err
	}
	w.writes++
	w.values += len(p) / 8
	return len(p), nil
}

// TestParseAllSmallReads: a reader that trickles one byte at a time
// exercises every refill path without changing the output.
func TestParseAllSmallReads(t *testing.T) {
	in := corpusNDJSON(schryer.CorpusN(500))
	var want, got bytes.Buffer
	if _, err := New(Config{}).ParseAll(context.Background(), bytes.NewReader(in), &want); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{}).ParseAll(context.Background(), iotest(bytes.NewReader(in)), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("one-byte reads change the output")
	}
}

// iotest wraps r to return one byte per Read (stdlib iotest.OneByteReader
// shape, local to avoid the extra import).
func iotest(r io.Reader) io.Reader { return &oneByte{r} }

type oneByte struct{ r io.Reader }

func (o *oneByte) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return o.r.Read(p[:1])
}

// TestConcurrentParseAllRace is the -race twin: one pool, many
// concurrent ParseAll calls, telemetry enabled, identical outputs.
func TestConcurrentParseAllRace(t *testing.T) {
	prev := floatprint.SetStatsEnabled(true)
	defer floatprint.SetStatsEnabled(prev)

	vals := schryer.CorpusN(8000)
	in := corpusNDJSON(vals)
	var want bytes.Buffer
	p := New(Config{Shards: 4, ParseBlockBytes: 8 << 10})
	if _, err := p.ParseAll(context.Background(), bytes.NewReader(in), &want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out bytes.Buffer
			if _, err := p.ParseAll(context.Background(), bytes.NewReader(in), &out); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(want.Bytes(), out.Bytes()) {
				t.Error("concurrent ParseAll output differs")
			}
		}()
	}
	wg.Wait()
}

// TestParseAllTelemetry checks the batch-parse counters advance through
// the root Snapshot when enabled.
func TestParseAllTelemetry(t *testing.T) {
	floatprint.ResetStats()
	prev := floatprint.SetStatsEnabled(true)
	defer func() {
		floatprint.SetStatsEnabled(prev)
		floatprint.ResetStats()
	}()

	in := corpusNDJSON(schryer.CorpusN(4000))
	before := floatprint.Snapshot()
	var out bytes.Buffer
	if _, err := New(Config{Shards: 2}).ParseAll(context.Background(), bytes.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	d := floatprint.Snapshot().Sub(before)
	if d.BatchParseValues != 4000 {
		t.Errorf("BatchParseValues = %d, want 4000", d.BatchParseValues)
	}
	if d.BatchParseBlocks == 0 {
		t.Errorf("BatchParseBlocks = 0, want > 0")
	}
	if d.BatchParseBytes != uint64(len(in)) {
		t.Errorf("BatchParseBytes = %d, want %d", d.BatchParseBytes, len(in))
	}
}

// BenchmarkParseAll measures a warm Pool: one untimed call fills its
// parse state, which a fresh Pool builds on its first call, so the
// allocation columns read the per-call cost at any b.N.
func BenchmarkParseAll(b *testing.B) {
	in := corpusNDJSON(schryer.CorpusN(65536))
	p := New(Config{})
	if _, err := p.ParseAll(context.Background(), bytes.NewReader(in), io.Discard); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ParseAll(context.Background(), bytes.NewReader(in), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
