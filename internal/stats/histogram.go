// Package stats provides the statistical primitives G-MAP is built on:
// integer-keyed histograms with weighted sampling, correlation and error
// metrics used for clone validation, and simple descriptive statistics.
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/uteda/gmap/internal/rng"
)

// Histogram is a frequency count over int64 keys. G-MAP uses it for stride
// distributions (keys are signed byte strides) and reuse distance
// distributions (keys are stack distances, with -1 meaning a cold access).
// The zero value is ready to use after a call to methods via pointer, but
// NewHistogram is preferred for clarity.
type Histogram struct {
	counts map[int64]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int64]uint64)}
}

// Add increments the count of key by one.
func (h *Histogram) Add(key int64) { h.AddN(key, 1) }

// AddN increments the count of key by n.
func (h *Histogram) AddN(key int64, n uint64) {
	if h.counts == nil {
		h.counts = make(map[int64]uint64)
	}
	h.counts[key] += n
	h.total += n
}

// Count returns the number of observations of key.
func (h *Histogram) Count(key int64) uint64 {
	return h.counts[key]
}

// Total returns the total number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Len returns the number of distinct keys.
func (h *Histogram) Len() int { return len(h.counts) }

// Freq returns the relative frequency of key in [0, 1]. An empty histogram
// reports 0 for every key.
func (h *Histogram) Freq(key int64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[key]) / float64(h.total)
}

// Keys returns the distinct keys in ascending order.
func (h *Histogram) Keys() []int64 {
	keys := make([]int64, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Mode returns the most frequent key and its relative frequency. Ties are
// broken toward the smaller key so the result is deterministic. ok is false
// for an empty histogram.
func (h *Histogram) Mode() (key int64, freq float64, ok bool) {
	if h.total == 0 {
		return 0, 0, false
	}
	var best int64
	var bestCount uint64
	first := true
	for k, c := range h.counts {
		if first || c > bestCount || (c == bestCount && k < best) {
			best, bestCount, first = k, c, false
		}
	}
	return best, float64(bestCount) / float64(h.total), true
}

// TopK returns up to k (key, frequency) pairs in descending frequency order,
// ties broken toward smaller keys.
func (h *Histogram) TopK(k int) []KeyFreq {
	all := make([]KeyFreq, 0, len(h.counts))
	for key, c := range h.counts {
		all = append(all, KeyFreq{Key: key, Count: c, Freq: float64(c) / float64(max64(h.total, 1))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Key < all[j].Key
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// KeyFreq is one histogram entry with its absolute count and relative
// frequency.
type KeyFreq struct {
	Key   int64
	Count uint64
	Freq  float64
}

// Mean returns the count-weighted mean of the keys, or 0 for an empty
// histogram. For stride histograms this is the expected drift per step.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for k, c := range h.counts {
		sum += float64(k) * float64(c)
	}
	return sum / float64(h.total)
}

// Contains reports whether key has been observed at least once; this is the
// supp(P) membership test from Algorithm 1 of the paper.
func (h *Histogram) Contains(key int64) bool {
	return h.counts[key] > 0
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := NewHistogram()
	for k, v := range h.counts {
		c.counts[k] = v
	}
	c.total = h.total
	return c
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for k, v := range other.counts {
		h.AddN(k, v)
	}
}

// Scale returns a copy of h with every count divided by factor (rounding
// up so non-empty bins stay non-empty). It implements the statistics
// miniaturization step of §4.6: the shape of the distribution is preserved
// while the sample mass shrinks. factor values <= 1 return a plain clone.
func (h *Histogram) Scale(factor float64) *Histogram {
	if factor <= 1 {
		return h.Clone()
	}
	c := NewHistogram()
	for k, v := range h.counts {
		scaled := uint64(float64(v) / factor)
		if scaled == 0 {
			scaled = 1
		}
		c.AddN(k, scaled)
	}
	return c
}

// LogBin returns a copy of h with keys above linearLimit quantized to
// powers of two (preserving sign); keys at or below the limit keep exact
// values. Reuse-distance histograms grow one key per distinct stack depth,
// i.e. with the footprint; log-binning bounds the profile size while
// preserving the distribution's shape at cache-relevant resolution —
// hit/miss outcomes depend on which side of a capacity a distance falls,
// and capacities are themselves powers of two.
func (h *Histogram) LogBin(linearLimit int64) *Histogram {
	if linearLimit < 1 {
		linearLimit = 1
	}
	out := NewHistogram()
	for k, c := range h.counts {
		out.AddN(logBinKey(k, linearLimit), c)
	}
	return out
}

func logBinKey(k, limit int64) int64 {
	neg := k < 0
	a := k
	if neg {
		a = -a
	}
	if a <= limit {
		return k
	}
	bin := int64(1)
	for bin < a {
		bin <<= 1
	}
	if neg {
		return -bin
	}
	return bin
}

// Sampler precomputes cumulative weights for O(log n) weighted sampling
// from a histogram. Building a Sampler snapshots the histogram; later
// histogram mutations are not reflected.
type Sampler struct {
	keys []int64
	cum  []uint64 // cumulative counts, cum[i] = sum of counts[0..i]
}

// NewSampler builds a sampler over h. It returns nil for an empty
// histogram; callers must handle that (an empty distribution means the
// profiled workload never exercised this statistic).
func NewSampler(h *Histogram) *Sampler {
	if h == nil || h.total == 0 {
		return nil
	}
	keys := h.Keys()
	cum := make([]uint64, len(keys))
	var run uint64
	for i, k := range keys {
		run += h.counts[k]
		cum[i] = run
	}
	return &Sampler{keys: keys, cum: cum}
}

// Sample draws one key with probability proportional to its count.
func (s *Sampler) Sample(r *rng.Rand) int64 {
	total := s.cum[len(s.cum)-1]
	x := r.Uint64n(total)
	// Find first index with cum > x.
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > x })
	return s.keys[i]
}

// Keys returns the sampler's key set in ascending order. The returned slice
// is shared; callers must not modify it.
func (s *Sampler) Keys() []int64 { return s.keys }

// rangeBounds returns the key-index interval [i, j) covering [lo, hi].
func (s *Sampler) rangeBounds(lo, hi int64) (int, int) {
	i := sort.Search(len(s.keys), func(n int) bool { return s.keys[n] >= lo })
	j := sort.Search(len(s.keys), func(n int) bool { return s.keys[n] > hi })
	return i, j
}

// RangeWeight returns the total count mass of keys in [lo, hi].
func (s *Sampler) RangeWeight(lo, hi int64) uint64 {
	if lo > hi {
		return 0
	}
	i, j := s.rangeBounds(lo, hi)
	if i >= j {
		return 0
	}
	var before uint64
	if i > 0 {
		before = s.cum[i-1]
	}
	return s.cum[j-1] - before
}

// SampleRange draws one key from the conditional distribution restricted
// to [lo, hi], with probability proportional to the original counts. ok is
// false when no key lies in the interval.
func (s *Sampler) SampleRange(r *rng.Rand, lo, hi int64) (int64, bool) {
	if lo > hi {
		return 0, false
	}
	i, j := s.rangeBounds(lo, hi)
	if i >= j {
		return 0, false
	}
	var before uint64
	if i > 0 {
		before = s.cum[i-1]
	}
	total := s.cum[j-1] - before
	x := before + r.Uint64n(total)
	idx := sort.Search(len(s.cum), func(n int) bool { return s.cum[n] > x })
	return s.keys[idx], true
}

// SampleRangeExcluding draws from the conditional distribution on
// [lo, hi] with key excl removed (maximal stride runs always end with a
// different stride). It falls back to including excl when nothing else
// has mass in the interval.
func (s *Sampler) SampleRangeExcluding(r *rng.Rand, lo, hi, excl int64) (int64, bool) {
	if lo > hi {
		return 0, false
	}
	wLow := s.RangeWeight(lo, excl-1)
	wHigh := s.RangeWeight(excl+1, hi)
	if wLow+wHigh == 0 {
		return s.SampleRange(r, lo, hi)
	}
	if r.Uint64n(wLow+wHigh) < wLow {
		return s.SampleRange(r, lo, excl-1)
	}
	return s.SampleRange(r, excl+1, hi)
}

// String renders the histogram compactly for debugging, e.g.
// "{-128:0.25 128:0.75}" with keys in ascending order.
func (h *Histogram) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range h.Keys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.3f", k, h.Freq(k))
	}
	b.WriteByte('}')
	return b.String()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
