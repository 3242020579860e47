package prefetch

import "github.com/uteda/gmap/internal/obs"

// trackedLines bounds the recently-issued set an Instrumented prefetcher
// keeps for usefulness classification. 1024 lines (128 KiB of coverage at
// 128 B lines) comfortably exceeds any configured prefetch distance.
const trackedLines = 1024

// noLine marks an empty tracking-ring slot; it can never collide with a
// real line address because line addresses are line-aligned.
const noLine = ^uint64(0)

// Instrumented decorates a Prefetcher with observability counters under
// a per-site name prefix:
//
//	<name>.issued  candidate lines the scheme proposed
//	<name>.useful  an issued line was later demanded and hit
//	<name>.late    an issued line was later demanded but missed — the
//	               prefetch was correct yet not timely
//
// Classification works without cache feedback: issued lines enter a
// bounded FIFO set, and the next demand Observe for a tracked line
// resolves it (hit → useful, miss → late) and stops tracking it. The
// wrapper forwards Observe verbatim, so wrapping never changes simulated
// behavior — only counts it.
type Instrumented struct {
	p                    Prefetcher
	issued, useful, late *obs.Counter
	recent               map[uint64]struct{}
	ring                 []uint64
	head                 int
}

// Instrument wraps p with counters registered on r under name (e.g.
// "prefetch.l1" or "prefetch.l2"). With a nil registry or nil prefetcher
// it returns p unchanged, so the disabled path costs nothing.
func Instrument(p Prefetcher, r *obs.Registry, name string) Prefetcher {
	if r == nil || p == nil {
		return p
	}
	ring := make([]uint64, trackedLines)
	for i := range ring {
		ring[i] = noLine
	}
	return &Instrumented{
		p:      p,
		issued: r.Counter(name + ".issued"),
		useful: r.Counter(name + ".useful"),
		late:   r.Counter(name + ".late"),
		recent: make(map[uint64]struct{}, trackedLines),
		ring:   ring,
	}
}

// Observe implements Prefetcher: classify the demand against tracked
// prefetches, then delegate and track any new candidates.
func (i *Instrumented) Observe(pc uint64, warp int, lineAddr uint64, miss bool) []uint64 {
	if _, ok := i.recent[lineAddr]; ok {
		delete(i.recent, lineAddr)
		if miss {
			i.late.Inc()
		} else {
			i.useful.Inc()
		}
	}
	out := i.p.Observe(pc, warp, lineAddr, miss)
	if len(out) > 0 {
		i.issued.Add(uint64(len(out)))
		for _, a := range out {
			i.track(a)
		}
	}
	return out
}

// track inserts a line into the bounded FIFO set, evicting the oldest
// slot's line. A line re-issued while still tracked refreshes nothing —
// the first slot's eviction drops it early, a deliberate simplification
// that keeps the ring O(1).
func (i *Instrumented) track(addr uint64) {
	if _, ok := i.recent[addr]; ok {
		return
	}
	if old := i.ring[i.head]; old != noLine {
		delete(i.recent, old)
	}
	i.ring[i.head] = addr
	i.head = (i.head + 1) % len(i.ring)
	i.recent[addr] = struct{}{}
}
