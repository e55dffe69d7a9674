// The ingestion experiment: batch-parse throughput in bytes per second,
// the figure of merit Lemire's "Number Parsing at a Gigabyte per
// Second" reports.  Three contenders scan the same NDJSON rendering of
// the corpus — the block-at-a-time engine (SWAR digit chunks into the
// Eisel–Lemire certifier, sharded by batch.Pool.ParseAll), a per-value
// floatprint.Parse loop over the same tokens, and a strconv.ParseFloat
// loop as the standard-library baseline — so the table isolates what
// block scanning buys over an already-fast per-value kernel.

package harness

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"floatprint"
	"floatprint/batch"
)

// BatchParseRow is one contender's measurement over the NDJSON corpus.
type BatchParseRow struct {
	Name     string
	Elapsed  time.Duration // best of batchRuns passes
	MBPerSec float64       // input bytes per second (the Lemire metric)
	Speedup  float64       // vs the per-value Parse loop
}

// BatchParseNDJSON renders the corpus as the batch engine's canonical
// input: one shortest rendering per line.
func BatchParseNDJSON(corpus []float64) []byte {
	in := make([]byte, 0, len(corpus)*24)
	for _, v := range corpus {
		in = floatprint.AppendShortest(in, v)
		in = append(in, '\n')
	}
	return in
}

// RunBatchParse measures ingestion throughput over the corpus's NDJSON
// rendering: the block engine, a per-value Parse loop, and a strconv
// loop, each timed as the best of batchRuns passes (the same
// methodology as RunBatch).
func RunBatchParse(corpus []float64) ([]BatchParseRow, error) {
	in := BatchParseNDJSON(corpus)
	rows := make([]BatchParseRow, 0, 3)

	p := batch.New(batch.Config{})
	row, err := timeBatchParse("block engine (ParseAll)", in, func() error {
		n, err := p.ParseAll(context.Background(), bytes.NewReader(in), io.Discard)
		if err == nil && n != int64(len(corpus)) {
			err = fmt.Errorf("block engine parsed %d values, want %d", n, len(corpus))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = timeBatchParse("per-value Parse loop", in, func() error {
		return eachToken(in, func(tok string) error {
			_, err := floatprint.Parse(tok, nil)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	row, err = timeBatchParse("strconv.ParseFloat loop", in, func() error {
		return eachToken(in, func(tok string) error {
			_, err := strconv.ParseFloat(tok, 64)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)

	base := rows[1].MBPerSec
	for i := range rows {
		rows[i].Speedup = rows[i].MBPerSec / base
	}
	return rows, nil
}

// eachToken walks newline-delimited tokens without allocating a slice
// of lines, so the per-value baselines pay tokenization but not
// splitting overhead the block engine never pays either.
func eachToken(in []byte, f func(string) error) error {
	for i := 0; i < len(in); {
		j := i
		for j < len(in) && in[j] != '\n' {
			j++
		}
		if j > i {
			if err := f(string(in[i:j])); err != nil {
				return err
			}
		}
		i = j + 1
	}
	return nil
}

func timeBatchParse(name string, in []byte, pass func() error) (BatchParseRow, error) {
	elapsed, err := bestOf(batchRuns, pass)
	if err != nil {
		return BatchParseRow{}, fmt.Errorf("%s: %w", name, err)
	}
	best := elapsed[0]
	return BatchParseRow{
		Name:     name,
		Elapsed:  best,
		MBPerSec: float64(len(in)) / 1e6 / best.Seconds(),
	}, nil
}

// RenderBatchParse formats the ingestion table.
func RenderBatchParse(rows []BatchParseRow, inputBytes, values int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "input: %d bytes, %d values (best of %d passes per row)\n",
		inputBytes, values, batchRuns)
	fmt.Fprintf(&sb, "%-28s %12s %10s %9s\n", "Parser", "time", "MB/s", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-28s %12s %10.1f %8.2fx\n",
			r.Name, r.Elapsed.Round(time.Microsecond), r.MBPerSec, r.Speedup)
	}
	return sb.String()
}

// VerifyBatchParse checks the acceptance invariant behind the
// throughput table: the block engine's packed output decodes to exactly
// the bits per-value floatprint.Parse produces for each token, in input
// order, for one shard and NumCPU shards.
func VerifyBatchParse(corpus []float64) error {
	in := BatchParseNDJSON(corpus)
	want := make([]uint64, 0, len(corpus))
	err := eachToken(in, func(tok string) error {
		v, err := floatprint.Parse(tok, nil)
		if err != nil {
			return err
		}
		want = append(want, math.Float64bits(v))
		return nil
	})
	if err != nil {
		return fmt.Errorf("per-value reference: %w", err)
	}

	shardCounts := []int{1}
	if cpus := runtime.NumCPU(); cpus > 1 {
		shardCounts = append(shardCounts, cpus)
	}
	for _, shards := range shardCounts {
		var out bytes.Buffer
		p := batch.New(batch.Config{Shards: shards})
		n, err := p.ParseAll(context.Background(), bytes.NewReader(in), &out)
		if err != nil {
			return fmt.Errorf("batch parse (shards=%d): %w", shards, err)
		}
		if n != int64(len(want)) || out.Len() != 8*len(want) {
			return fmt.Errorf("batch parse (shards=%d): %d values / %d bytes, want %d / %d",
				shards, n, out.Len(), len(want), 8*len(want))
		}
		packed := out.Bytes()
		for i, w := range want {
			if got := binary.LittleEndian.Uint64(packed[8*i:]); got != w {
				return fmt.Errorf("batch parse (shards=%d): value %d is %#x, per-value Parse says %#x",
					shards, i, got, w)
			}
		}
	}
	return nil
}
