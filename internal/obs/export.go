package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// GaugeSnapshot is one gauge's exported state.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Bucket is one non-empty histogram bucket: the half-open value range
// [Lo, Hi) and its observation count. The zero bucket exports Lo=Hi=0.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time export of a whole registry — the
// expvar-style dump surfaced by `gmap-sim -obs-snapshot`. Maps marshal
// with sorted keys, so the JSON form is deterministic for a
// deterministic run.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series     map[string][]Point           `json:"series,omitempty"`
}

// snapshotHistogram freezes one histogram.
func snapshotHistogram(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean()}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		b := Bucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			if i < 64 {
				b.Hi = 1 << i
			} else {
				b.Hi = ^uint64(0)
			}
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// Snapshot freezes the registry. A nil registry yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]GaugeSnapshot, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			snap.Histograms[name] = snapshotHistogram(h)
		}
	}
	if len(r.samplers) > 0 {
		snap.Series = make(map[string][]Point, len(r.samplers))
		for name, s := range r.samplers {
			snap.Series[name] = s.Points()
		}
	}
	return snap
}

// WriteJSON writes the full registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFile streams export to path, or to stdout for "-"; every CLI
// writes its -obs-*, -trace-out and -attr-out exports through it. An
// error names the path. It is not fault.WriteFile: that one is the
// durable temp+fsync+rename writer for state the program reads back,
// while an export streams straight to its destination.
func WriteFile(path string, export func(io.Writer) error) error {
	if path == "-" {
		return export(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// seriesLine is one JSONL record of WriteSeriesJSONL.
type seriesLine struct {
	Series string  `json:"series"`
	Cycle  uint64  `json:"cycle"`
	Value  float64 `json:"value"`
}

// WriteSeriesJSONL streams every sampler's retained series as JSON Lines
// — one {"series","cycle","value"} object per point, series in name
// order, points in cycle order. This is the `gmap-sim -obs-out` format.
func (r *Registry) WriteSeriesJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	samplers := make(map[string]*Sampler, len(r.samplers))
	for name, s := range r.samplers {
		samplers[name] = s
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, name := range names(samplers) {
		for _, p := range samplers[name].Points() {
			line, err := json.Marshal(seriesLine{Series: name, Cycle: p.Cycle, Value: p.Value})
			if err != nil {
				return err
			}
			if _, err := bw.Write(append(line, '\n')); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// CounterTotal sums every counter whose name starts with prefix — a
// convenience for tests and report lines (e.g. all per-bank writebacks).
// The prefix must end at a name-component boundary: an exact match, or a
// continuation that is not a letter (so "l2.bank" covers
// "l2.bank0.writebacks" but "runner.job" does not also cover
// "runner.jobs_dropped").
func (r *Registry) CounterTotal(prefix string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total uint64
	for name, c := range r.counters {
		if counterPrefixMatch(name, prefix) {
			total += c.Value()
		}
	}
	return total
}

// counterPrefixMatch reports whether name falls under prefix for
// CounterTotal: equal, or prefix followed by a non-letter (digits, '.',
// '_' all delimit; a letter would continue a different word).
func counterPrefixMatch(name, prefix string) bool {
	if !strings.HasPrefix(name, prefix) {
		return false
	}
	if len(name) == len(prefix) {
		return true
	}
	next := name[len(prefix)]
	return !('a' <= next && next <= 'z' || 'A' <= next && next <= 'Z')
}

// String renders a terse one-line summary (metric counts), mainly for
// debugging.
func (r *Registry) String() string {
	if r == nil {
		return "obs: disabled"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("obs: %d counters, %d gauges, %d histograms, %d series",
		len(r.counters), len(r.gauges), len(r.hists), len(r.samplers))
}
