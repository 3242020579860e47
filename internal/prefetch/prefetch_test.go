package prefetch

import (
	"testing"
)

func mustStride(t *testing.T, cfg StrideConfig) *Stride {
	t.Helper()
	s, err := NewStride(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustStream(t *testing.T, cfg StreamConfig) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNilPrefetcher(t *testing.T) {
	var n Nil
	if got := n.Observe(1, 0, 0x1000, true); got != nil {
		t.Errorf("Nil prefetched %v", got)
	}
}

func TestStrideConfigValidate(t *testing.T) {
	if err := DefaultStrideConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []StrideConfig{
		{TableSize: 0, Degree: 1, MinConfidence: 1},
		{TableSize: 48, Degree: 1, MinConfidence: 1},
		{TableSize: 64, Degree: 0, MinConfidence: 1},
		{TableSize: 64, Degree: 1, MinConfidence: 0},
	}
	for _, c := range bad {
		if _, err := NewStride(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestStrideDetection(t *testing.T) {
	s := mustStride(t, StrideConfig{TableSize: 64, Degree: 2, MinConfidence: 2})
	// Accesses at +128 stride: first sets last, second sets stride
	// (conf 1), third confirms (conf 2) and triggers.
	if got := s.Observe(0x900, 0, 0x1000, true); got != nil {
		t.Fatalf("premature prefetch %v", got)
	}
	if got := s.Observe(0x900, 0, 0x1080, true); got != nil {
		t.Fatalf("prefetch at confidence 1: %v", got)
	}
	got := s.Observe(0x900, 0, 0x1100, true)
	if len(got) != 2 || got[0] != 0x1180 || got[1] != 0x1200 {
		t.Fatalf("prefetch = %#v, want [0x1180 0x1200]", got)
	}
}

func TestStrideNegativeDirection(t *testing.T) {
	s := mustStride(t, StrideConfig{TableSize: 64, Degree: 1, MinConfidence: 2})
	s.Observe(0x900, 0, 0x4000, true)
	s.Observe(0x900, 0, 0x3f00, true)
	got := s.Observe(0x900, 0, 0x3e00, true)
	if len(got) != 1 || got[0] != 0x3d00 {
		t.Fatalf("negative stride prefetch = %#v", got)
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	s := mustStride(t, StrideConfig{TableSize: 64, Degree: 1, MinConfidence: 2})
	s.Observe(0x900, 0, 0x1000, true)
	s.Observe(0x900, 0, 0x1080, true)
	s.Observe(0x900, 0, 0x1100, true) // confident now
	if got := s.Observe(0x900, 0, 0x5000, true); got != nil {
		t.Fatalf("prefetch on stride break: %v", got)
	}
	if got := s.Observe(0x900, 0, 0x5100, true); got != nil {
		// stride 0x100 seen once, conf 1 < 2
		t.Fatalf("prefetch at rebuilt confidence 1: %v", got)
	}
	got := s.Observe(0x900, 0, 0x5200, true)
	if len(got) != 1 || got[0] != 0x5300 {
		t.Fatalf("recovered prefetch = %#v", got)
	}
}

func TestStrideZeroIgnored(t *testing.T) {
	s := mustStride(t, StrideConfig{TableSize: 64, Degree: 2, MinConfidence: 1})
	for i := 0; i < 5; i++ {
		if got := s.Observe(0x900, 0, 0x1000, true); got != nil {
			t.Fatalf("prefetched on zero stride: %v", got)
		}
	}
}

func TestStridePerWarpIsolation(t *testing.T) {
	// With PerWarp, interleaved warps each keep their own stride; without
	// it, interleaving pollutes the single entry.
	perWarp := mustStride(t, StrideConfig{TableSize: 64, Degree: 1, MinConfidence: 2, PerWarp: true})
	issued := 0
	for i := 0; i < 6; i++ {
		if got := perWarp.Observe(0x900, 0, uint64(0x10000+i*0x80), true); got != nil {
			issued++
		}
		if got := perWarp.Observe(0x900, 1, uint64(0x90000+i*0x80), true); got != nil {
			issued++
		}
	}
	if issued < 8 {
		t.Errorf("per-warp prefetcher issued %d times, want >= 8", issued)
	}
	shared := mustStride(t, StrideConfig{TableSize: 64, Degree: 1, MinConfidence: 2, PerWarp: false})
	issued = 0
	for i := 0; i < 6; i++ {
		if got := shared.Observe(0x900, 0, uint64(0x10000+i*0x80), true); got != nil {
			issued++
		}
		if got := shared.Observe(0x900, 1, uint64(0x90000+i*0x80), true); got != nil {
			issued++
		}
	}
	if issued != 0 {
		t.Errorf("shared-entry prefetcher issued %d times despite pollution", issued)
	}
}

func TestStreamConfigValidate(t *testing.T) {
	if err := DefaultStreamConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []StreamConfig{
		{Streams: 0, Window: 8, Degree: 1, LineSize: 128},
		{Streams: 4, Window: 0, Degree: 1, LineSize: 128},
		{Streams: 4, Window: 8, Degree: 0, LineSize: 128},
		{Streams: 4, Window: 8, Degree: 1, LineSize: 100},
	}
	for _, c := range bad {
		if _, err := NewStream(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestStreamDetection(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 4, Window: 8, Degree: 2, LineSize: 128})
	// Miss at line 100 allocates; miss at 102 sets direction; miss at 104
	// advances and prefetches 105, 106.
	if got := s.Observe(0, 0, 100*128, true); got != nil {
		t.Fatalf("prefetch on allocation: %v", got)
	}
	if got := s.Observe(0, 0, 102*128, true); got != nil {
		t.Fatalf("prefetch on direction setup: %v", got)
	}
	got := s.Observe(0, 0, 104*128, true)
	if len(got) != 2 || got[0] != 105*128 || got[1] != 106*128 {
		t.Fatalf("stream prefetch = %v, want lines 105,106", got)
	}
}

func TestStreamDescending(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 4, Window: 8, Degree: 1, LineSize: 128})
	s.Observe(0, 0, 500*128, true)
	s.Observe(0, 0, 497*128, true)
	got := s.Observe(0, 0, 494*128, true)
	if len(got) != 1 || got[0] != 493*128 {
		t.Fatalf("descending prefetch = %v, want line 493", got)
	}
}

func TestStreamWindowBounds(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 1, Window: 4, Degree: 1, LineSize: 128})
	s.Observe(0, 0, 100*128, true)
	s.Observe(0, 0, 102*128, true) // direction up
	// A jump beyond the window must not match; it replaces the stream.
	if got := s.Observe(0, 0, 200*128, true); got != nil {
		t.Fatalf("out-of-window access matched: %v", got)
	}
}

func TestStreamIgnoresHits(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 4, Window: 8, Degree: 1, LineSize: 128})
	s.Observe(0, 0, 100*128, false)
	s.Observe(0, 0, 101*128, false)
	if got := s.Observe(0, 0, 102*128, false); got != nil {
		t.Errorf("hit-trained stream prefetched: %v", got)
	}
}

func TestStreamMultipleConcurrent(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 4, Window: 8, Degree: 1, LineSize: 128})
	// Interleave two ascending streams far apart; both must train.
	issued := 0
	for i := int64(0); i < 6; i++ {
		if got := s.Observe(0, 0, uint64((100+2*i)*128), true); got != nil {
			issued++
		}
		if got := s.Observe(0, 0, uint64((9000+2*i)*128), true); got != nil {
			issued++
		}
	}
	if issued < 8 {
		t.Errorf("concurrent streams issued %d prefetches, want >= 8", issued)
	}
}

func TestStreamLRUReplacement(t *testing.T) {
	s := mustStream(t, StreamConfig{Streams: 2, Window: 4, Degree: 1, LineSize: 128})
	s.Observe(0, 0, 100*128, true)  // stream A
	s.Observe(0, 0, 5000*128, true) // stream B
	s.Observe(0, 0, 9000*128, true) // evicts A (LRU)
	// A's continuation no longer matches.
	if got := s.Observe(0, 0, 102*128, true); got != nil {
		t.Errorf("evicted stream still live: %v", got)
	}
}

func BenchmarkStrideObserve(b *testing.B) {
	s, err := NewStride(DefaultStrideConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s.Observe(0x900, i&31, uint64(i)*128, true)
	}
}

func BenchmarkStreamObserve(b *testing.B) {
	s, err := NewStream(DefaultStreamConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s.Observe(0, 0, uint64(i)*128, true)
	}
}
