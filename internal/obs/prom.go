package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders a point-in-time registry snapshot in the
// Prometheus text exposition format (version 0.0.4): WriteMembers of one
// unnamed member. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteMembers(w, []Member{{Snap: r.Snapshot()}})
}

// Member is one contributor to a Prometheus exposition: a registry
// snapshot and the name its samples are labeled with.
type Member struct {
	Name string
	Snap Snapshot
}

// WriteMembers renders the members' snapshots as one Prometheus text
// exposition: counters as counters, gauges as a value/max gauge pair,
// histograms as cumulative le-bucketed histograms with _sum and _count,
// and each sampled series' most recent point as a gauge under a series_
// prefix. Metric names are the union over members, sanitized
// (non-alphanumerics become '_'), prefixed gmap_ and written in sorted
// order per kind, so output is golden-comparable.
//
// For each name, every named member that reports it writes one
// {worker="<name>"} sample, then the unlabeled aggregate follows:
// counters and gauge values sum, gauge maxima take the max, and
// histogram buckets merge by inclusive bound. An unnamed member writes
// no labeled samples, so the aggregate is its value. Series are written
// for unnamed members only: a fleet exposition, whose members are all
// named, leaves them out.
func WriteMembers(w io.Writer, members []Member) error {
	bw := bufio.NewWriter(w)
	for _, name := range union(members, func(s Snapshot) map[string]uint64 { return s.Counters }) {
		m := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n", m)
		var sum uint64
		for _, mem := range members {
			if v, ok := mem.Snap.Counters[name]; ok {
				sum += v
				mem.sample(bw, m, v)
			}
		}
		fmt.Fprintf(bw, "%s %d\n", m, sum)
	}
	for _, name := range union(members, func(s Snapshot) map[string]GaugeSnapshot { return s.Gauges }) {
		m := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n", m)
		var sum, max int64
		var have bool
		for _, mem := range members {
			if g, ok := mem.Snap.Gauges[name]; ok {
				sum += g.Value
				if !have || g.Max > max {
					max = g.Max
				}
				have = true
				mem.sample(bw, m, g.Value)
			}
		}
		fmt.Fprintf(bw, "%s %d\n# TYPE %s_max gauge\n", m, sum, m)
		for _, mem := range members {
			if g, ok := mem.Snap.Gauges[name]; ok {
				mem.sample(bw, m+"_max", g.Max)
			}
		}
		fmt.Fprintf(bw, "%s_max %d\n", m, max)
	}
	for _, name := range union(members, func(s Snapshot) map[string]HistogramSnapshot { return s.Histograms }) {
		m := promName(name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", m)
		// Buckets are [Lo, Hi); Prometheus le is inclusive, so a bucket
		// counts under Hi-1 (the zero bucket holds only 0). Every member
		// uses the same power-of-two bucketing, so bounds align exactly.
		merged := map[uint64]uint64{}
		var count, sum uint64
		for _, mem := range members {
			h, ok := mem.Snap.Histograms[name]
			if !ok {
				continue
			}
			count += h.Count
			sum += h.Sum
			for _, b := range h.Buckets {
				le := uint64(0)
				if b.Hi > 0 {
					le = b.Hi - 1
				}
				merged[le] += b.Count
			}
		}
		bounds := make([]uint64, 0, len(merged))
		for le := range merged {
			bounds = append(bounds, le)
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		var cum uint64
		for _, le := range bounds {
			cum += merged[le]
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", m, le, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m, count)
		for _, mem := range members {
			if h, ok := mem.Snap.Histograms[name]; ok {
				mem.sample(bw, m+"_sum", h.Sum)
			}
		}
		fmt.Fprintf(bw, "%s_sum %d\n", m, sum)
		for _, mem := range members {
			if h, ok := mem.Snap.Histograms[name]; ok {
				mem.sample(bw, m+"_count", h.Count)
			}
		}
		fmt.Fprintf(bw, "%s_count %d\n", m, count)
	}
	for _, name := range union(members, func(s Snapshot) map[string][]Point { return s.Series }) {
		var v float64
		var have bool
		for _, mem := range members {
			if pts := mem.Snap.Series[name]; mem.Name == "" && len(pts) > 0 {
				v += pts[len(pts)-1].Value
				have = true
			}
		}
		if !have {
			continue
		}
		m := promName("series." + name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %s\n", m, m, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return bw.Flush()
}

// sample writes the member's labeled sample of metric m; an unnamed
// member writes nothing.
func (mem Member) sample(bw *bufio.Writer, m string, v interface{}) {
	if mem.Name != "" {
		fmt.Fprintf(bw, "%s{worker=%q} %d\n", m, mem.Name, v)
	}
}

// union returns the sorted set of names that pick finds in any member's
// snapshot.
func union[T any](members []Member, pick func(Snapshot) map[string]T) []string {
	seen := map[string]bool{}
	for _, mem := range members {
		for name := range pick(mem.Snap) {
			seen[name] = true
		}
	}
	return names(seen)
}

// promName maps a dotted registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:] with a gmap_ namespace prefix.
func promName(name string) string {
	b := []byte("gmap_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}
