package main

import (
	"runtime"
	"slices"
	"sort"
	"time"
)

const (
	// refLen is the size of the reference computation: filling this many
	// ints from a fixed pseudo-random sequence and sorting them.
	refLen = 1 << 16
	// refReps is how many times the reference runs on each side of a
	// call; the median of the times is the reference time.
	refReps = 3
	// refNominal is about what the reference computation takes on the
	// host the README's medians were recorded on when that host is
	// quiet. Scaled times are host times on a host that runs the
	// reference in refNominal.
	refNominal = 6 * time.Millisecond
)

// stopwatch times the calls of one pass, each on its own. A shared host
// runs slower or faster for seconds to minutes at a time, by up to a
// third, so the stopwatch times a fixed reference computation just before
// and just after each call and scales the call's time by refNominal over
// the mean of the two. A call's scaled time moves with the call's own
// cost, much less with the host's speed while it ran. The heap is
// collected before each call, outside its time, so that no call pays for
// another's garbage. A nil stopwatch only makes the calls.
type stopwatch struct {
	buf []int
	// laps is the scaled time of each call of the pass, in seconds.
	laps map[string]float64
	// raw is the unscaled time of the pass's calls; refs are the
	// reference times, two per call.
	raw  time.Duration
	refs []time.Duration
}

func newStopwatch() *stopwatch {
	return &stopwatch{buf: make([]int, refLen)}
}

// reset starts a new pass.
func (s *stopwatch) reset() {
	s.laps = make(map[string]float64)
	s.raw = 0
}

// time makes one call, named uniquely within the pass, and records its
// scaled time.
func (s *stopwatch) time(name string, f func() error) error {
	if s == nil {
		return f()
	}
	runtime.GC()
	before := s.reference()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	after := s.reference()
	s.raw += d
	s.refs = append(s.refs, before, after)
	s.laps[name] += d.Seconds() * refNominal.Seconds() / ((before + after).Seconds() / 2)
	return err
}

// scaled is the pass's scaled time so far, in seconds.
func (s *stopwatch) scaled() float64 {
	var sum float64
	for _, name := range sortedKeys(s.laps) {
		sum += s.laps[name]
	}
	return sum
}

// reference runs the reference computation refReps times and returns the
// median time.
func (s *stopwatch) reference() time.Duration {
	var ds [refReps]time.Duration
	for i := range ds {
		t0 := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for j := range s.buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			s.buf[j] = int(x >> 1)
		}
		sort.Ints(s.buf)
		ds[i] = time.Since(t0)
	}
	slices.Sort(ds[:])
	return ds[refReps/2]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
