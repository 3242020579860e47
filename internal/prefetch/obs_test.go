package prefetch

import (
	"testing"

	"github.com/uteda/gmap/internal/obs"
)

// scripted returns fixed candidate lists per call.
type scripted struct {
	out   [][]uint64
	calls int
}

func (s *scripted) Observe(uint64, int, uint64, bool) []uint64 {
	if s.calls >= len(s.out) {
		s.calls++
		return nil
	}
	o := s.out[s.calls]
	s.calls++
	return o
}

func TestInstrumentNilPassThrough(t *testing.T) {
	p := &scripted{}
	if got := Instrument(p, nil, "prefetch.l1"); got != Prefetcher(p) {
		t.Error("nil registry must return the prefetcher unchanged")
	}
	if got := Instrument(nil, obs.New(), "prefetch.l1"); got != nil {
		t.Error("nil prefetcher must stay nil")
	}
}

func TestInstrumentCountsIssuedUsefulLate(t *testing.T) {
	r := obs.New()
	p := Instrument(&scripted{out: [][]uint64{{0x100, 0x200}}}, r, "prefetch.l1")
	// First access triggers two prefetches.
	p.Observe(0x4, 0, 0x000, true)
	// Demand hit on a prefetched line → useful.
	p.Observe(0x4, 0, 0x100, false)
	// Demand miss on the other prefetched line → late.
	p.Observe(0x4, 0, 0x200, true)
	// Untracked line → no classification.
	p.Observe(0x4, 0, 0x900, true)
	if got := r.Counter("prefetch.l1.issued").Value(); got != 2 {
		t.Errorf("issued = %d, want 2", got)
	}
	if got := r.Counter("prefetch.l1.useful").Value(); got != 1 {
		t.Errorf("useful = %d, want 1", got)
	}
	if got := r.Counter("prefetch.l1.late").Value(); got != 1 {
		t.Errorf("late = %d, want 1", got)
	}
}

// TestInstrumentClassifiesOnce checks a tracked line resolves exactly one
// classification — the second demand for it counts nothing.
func TestInstrumentClassifiesOnce(t *testing.T) {
	r := obs.New()
	p := Instrument(&scripted{out: [][]uint64{{0x100}}}, r, "pf")
	p.Observe(0, 0, 0x0, true)
	p.Observe(0, 0, 0x100, false)
	p.Observe(0, 0, 0x100, false)
	if got := r.Counter("pf.useful").Value(); got != 1 {
		t.Errorf("useful = %d, want 1", got)
	}
}

// TestInstrumentBoundedTracking fills the FIFO past its capacity and
// checks evicted lines are no longer classified.
func TestInstrumentBoundedTracking(t *testing.T) {
	r := obs.New()
	outs := make([][]uint64, trackedLines+1)
	for i := range outs {
		outs[i] = []uint64{uint64(i+1) << 8}
	}
	p := Instrument(&scripted{out: outs}, r, "pf")
	for range outs {
		p.Observe(0, 0, 0xdead0000, true)
	}
	// The first issued line (0x100) was evicted to make room.
	p.Observe(0, 0, 0x100, false)
	if got := r.Counter("pf.useful").Value(); got != 0 {
		t.Errorf("evicted line still classified: useful = %d", got)
	}
	// The newest line is still tracked.
	p.Observe(0, 0, outs[len(outs)-1][0], false)
	if got := r.Counter("pf.useful").Value(); got != 1 {
		t.Errorf("newest line not tracked: useful = %d", got)
	}
}

// TestInstrumentTransparent verifies the wrapper forwards the wrapped
// scheme's candidates verbatim — the property the obs-invariance test
// depends on.
func TestInstrumentTransparent(t *testing.T) {
	mk := func() (*Stride, error) { return NewStride(DefaultStrideConfig()) }
	plain, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	inner, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	wrapped := Instrument(inner, obs.New(), "pf")
	for i := 0; i < 100; i++ {
		addr := uint64(i) * 128
		a := plain.Observe(0x40, 0, addr, true)
		b := wrapped.Observe(0x40, 0, addr, true)
		if len(a) != len(b) {
			t.Fatalf("step %d: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("step %d: %v vs %v", i, a, b)
			}
		}
	}
}
