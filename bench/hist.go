package main

import "math/bits"

// hist is a fixed-memory log-bucketed histogram of non-negative int64
// samples (nanoseconds, queue depths). Values below 64 are exact;
// above that each power of two splits into 64 sub-buckets, so a bucket
// is at most 1/64 of its value wide, and quantile interpolates inside
// the bucket it lands in. A hist is owned by one goroutine; concurrent
// recorders each keep their own and merge after the run, which keeps
// the record path to two plain increments and no allocation.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

const (
	histSub     = 64 // sub-buckets per power of two
	histSubBits = 6
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // >= histSubBits
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns the smallest value of bucket i and its width.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	e := uint(i/histSub) + histSubBits - 1
	sub := int64(i % histSub)
	return (histSub + sub) << (e - histSubBits), 1 << (e - histSubBits)
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile (0 < q <= 1), interpolated linearly
// inside the bucket holding that rank; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			v := float64(lo) + float64(width)*(rank-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// beyond returns how many samples lie above the q-quantile's rank: a
// percentile is reported only when at least ten do.
func (h *hist) beyond(q float64) int64 {
	return int64(float64(h.n) * (1 - q))
}
