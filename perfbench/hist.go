package main

import "math/bits"

// subBits sets the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a bucket spans at most 1/64 of its lower bound.
const subBits = 6

// histBuckets covers every uint64 nanosecond value: values below 2^(subBits+1)
// get one bucket each, and each higher octave gets 2^subBits.
const histBuckets = (64 - subBits + 1) << subBits

// hist is a fixed-size log-bucketed latency histogram.  Recording costs one
// index computation and one increment, and memory stays constant however
// long the run is, so the load generator's own heap does not grow into the
// live-heap figure it reports.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(ns uint64) int {
	l := bits.Len64(ns)
	if l <= subBits+1 {
		return int(ns)
	}
	shift := l - subBits - 1
	return (shift+1)<<subBits + int(ns>>shift) - 1<<subBits
}

// bucketRange returns the lower bound and width of bucket b.
func bucketRange(b int) (low, width float64) {
	if b < 2<<subBits {
		return float64(b), 1
	}
	shift := b>>subBits - 1
	m := uint64(b&(1<<subBits-1) + 1<<subBits)
	return float64(m << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	b, before := h.find(q)
	if b < 0 {
		return 0
	}
	low, width := bucketRange(b)
	return low + width*(q*float64(h.n)-float64(before))/float64(h.counts[b])
}

// beyond returns the number of samples in buckets above the one holding
// the q-quantile.
func (h *hist) beyond(q float64) uint64 {
	b, before := h.find(q)
	if b < 0 {
		return 0
	}
	return h.n - before - h.counts[b]
}

// find returns the bucket holding the q-quantile and the sample count in
// the buckets below it, or -1 for an empty histogram.
func (h *hist) find(q float64) (int, uint64) {
	if h.n == 0 {
		return -1, 0
	}
	rank := q * float64(h.n)
	var cum uint64
	for b, c := range h.counts {
		if c > 0 && float64(cum+c) >= rank {
			return b, cum
		}
		cum += c
	}
	return -1, 0
}
