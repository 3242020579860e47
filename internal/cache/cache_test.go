package cache

import (
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/rng"
)

func mustNew(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallCfg() Config {
	return Config{SizeBytes: 1024, Ways: 2, LineSize: 64} // 8 sets
}

func TestConfigValidate(t *testing.T) {
	if _, err := (Config{SizeBytes: 16384, Ways: 4, LineSize: 128}).Validate(); err != nil {
		t.Errorf("Table 2 L1 config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 1024, Ways: 2, LineSize: 63},       // non-pow2 line
		{SizeBytes: 1000, Ways: 2, LineSize: 64},       // indivisible
		{SizeBytes: 1024, Ways: 0, LineSize: 64},       // zero ways
		{SizeBytes: 3 * 64 * 2, Ways: 2, LineSize: 64}, // 3 sets
	}
	for _, cfg := range bad {
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{SizeBytes: 16384, Ways: 4, LineSize: 128}
	if got := cfg.String(); got != "16KB 4-way 128B" {
		t.Errorf("String = %q", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, smallCfg())
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	if r := c.Access(0x1004, false); !r.Hit {
		t.Error("same-line access missed")
	}
	if c.Stats.Accesses != 3 || c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way: A, B, C in the same set evicts A (LRU); touching A between
	// keeps it.
	c := mustNew(t, smallCfg())
	setStride := uint64(8 * 64) // 8 sets x 64B: same set every 512B
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	r := c.Access(d, false)
	if !r.Evicted || r.EvictedAddr != a {
		t.Errorf("expected eviction of %#x, got %+v", a, r)
	}
	if c.Access(b, false).Hit != true {
		t.Error("b evicted instead of a")
	}
	// Now a, touch a, insert d on a fresh cache: b must go.
	c = mustNew(t, smallCfg())
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // refresh a
	r = c.Access(d, false)
	if !r.Evicted || r.EvictedAddr != b {
		t.Errorf("LRU refresh broken: evicted %#x, want %#x", r.EvictedAddr, b)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustNew(t, smallCfg())
	setStride := uint64(512)
	c.Access(0, true) // write-allocate, dirty
	c.Access(setStride, false)
	r := c.Access(2*setStride, false)
	if !r.Evicted || !r.EvictedDirty || r.EvictedAddr != 0 {
		t.Errorf("dirty victim not reported: %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Stats.Writebacks)
	}
	// Clean victim must not report dirty.
	r = c.Access(3*setStride, false)
	if !r.Evicted || r.EvictedDirty {
		t.Errorf("clean victim misreported: %+v", r)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0, false) // clean fill
	c.Access(0, true)  // write hit -> dirty
	setStride := uint64(512)
	c.Access(setStride, false)
	r := c.Access(2*setStride, false)
	if !r.EvictedDirty {
		t.Error("write hit did not dirty the line")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Access(0x40, false)
	before := c.Stats
	if !c.Probe(0x40) || c.Probe(0x4000) {
		t.Error("Probe wrong")
	}
	if c.Stats != before {
		t.Error("Probe mutated stats")
	}
}

func TestFillAndPrefetchUsefulness(t *testing.T) {
	c := mustNew(t, smallCfg())
	if r := c.Fill(0x80); r.Hit {
		t.Error("fill of absent line reported hit")
	}
	if c.Stats.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d", c.Stats.PrefetchFills)
	}
	// Fill again: no-op.
	if r := c.Fill(0x80); !r.Hit {
		t.Error("duplicate fill missed")
	}
	if c.Stats.PrefetchFills != 1 {
		t.Error("duplicate fill recounted")
	}
	// Demand hit consumes the prefetch exactly once.
	r := c.Access(0x80, false)
	if !r.Hit || !r.PrefetchHit {
		t.Errorf("first demand hit on prefetched line: %+v", r)
	}
	r = c.Access(0x80, false)
	if !r.Hit || r.PrefetchHit {
		t.Errorf("second demand hit recounted prefetch: %+v", r)
	}
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d", c.Stats.PrefetchUseful)
	}
}

func TestFillDoesNotCountDemand(t *testing.T) {
	c := mustNew(t, smallCfg())
	c.Fill(0x100)
	if c.Stats.Accesses != 0 || c.Stats.Misses != 0 {
		t.Errorf("Fill counted as demand: %+v", c.Stats)
	}
}

// TestMissTakesFirstFreeWay pins the victim order of the flat layout: a
// miss takes its set's first invalid way, so a set fills from way 0 up,
// and a full set evicts its least recently used way. Through the API the
// order of free ways is invisible; this is the test that sees it.
func TestMissTakesFirstFreeWay(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 4 * 64, Ways: 4, LineSize: 64}) // one set
	for n := uint64(0); n < 4; n++ {
		c.Access(n*64, false)
		for w := uint64(0); w < 4; w++ {
			if valid := c.lastUse[w] != 0; valid != (w <= n) || valid && c.tags[w] != w {
				t.Fatalf("after %d misses way %d holds tag %d (valid %v); want lines in ways 0..%d",
					n+1, w, c.tags[w], valid, n)
			}
		}
	}
	c.Access(0, false) // way 0 is now the most recently used
	if r := c.Access(4*64, false); !r.Evicted || r.EvictedAddr != 64 || c.tags[1] != 4 {
		t.Fatalf("full set evicted %+v into tags %v; want line 1 out of way 1", r, c.tags)
	}
}

func TestMissRateStreamVsResident(t *testing.T) {
	// Working set fits: after warmup, no misses. Working set 4x cache:
	// LRU streaming misses every time.
	c := mustNew(t, Config{SizeBytes: 4096, Ways: 4, LineSize: 64})
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 2048; addr += 64 {
			c.Access(addr, false)
		}
	}
	if c.Stats.Misses != 32 {
		t.Errorf("resident set missed %d times, want 32 cold", c.Stats.Misses)
	}
	c = mustNew(t, Config{SizeBytes: 4096, Ways: 4, LineSize: 64})
	for pass := 0; pass < 4; pass++ {
		for addr := uint64(0); addr < 16384; addr += 64 {
			c.Access(addr, false)
		}
	}
	if rate := c.Stats.MissRate(); rate != 1.0 {
		t.Errorf("streaming over 4x capacity miss rate = %v, want 1.0", rate)
	}
}

func TestLRUInclusionProperty(t *testing.T) {
	// Mattson's stack property: for fully-associative LRU, a larger cache
	// never misses more on the same trace.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		traceAddrs := make([]uint64, 2000)
		for i := range traceAddrs {
			traceAddrs[i] = r.Uint64n(256) * 64
		}
		small := mustNew(t, Config{SizeBytes: 8 * 64, Ways: 8, LineSize: 64})
		big := mustNew(t, Config{SizeBytes: 32 * 64, Ways: 32, LineSize: 64})
		for _, a := range traceAddrs {
			small.Access(a, false)
			big.Access(a, false)
		}
		return big.Stats.Misses <= small.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := mustNew(t, Config{SizeBytes: 2048, Ways: 2, LineSize: 64})
		inserted := make(map[uint64]bool)
		for i := 0; i < 500; i++ {
			addr := r.Uint64n(1<<20) &^ 63
			res := c.Access(addr, false)
			inserted[addr] = true
			if res.Evicted {
				if !inserted[res.EvictedAddr] {
					return false // reconstructed an address never inserted
				}
				// Victim must share the set with the incoming address.
				if (res.EvictedAddr>>6)&15 != (addr>>6)&15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Accesses: 10, Misses: 3, PrefetchFills: 4, PrefetchUseful: 2}
	if s.MissRate() != 0.3 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.PrefetchAccuracy() != 0.5 {
		t.Errorf("PrefetchAccuracy = %v", s.PrefetchAccuracy())
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.PrefetchAccuracy() != 0 {
		t.Error("zero stats not 0")
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.Accesses != 20 || agg.PrefetchUseful != 4 {
		t.Errorf("Add = %+v", agg)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := mustNew(b, Config{SizeBytes: 16384, Ways: 4, LineSize: 128})
	r := rng.New(1)
	addrs := make([]uint64, 1<<14)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 22)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], false)
	}
}

func TestWriteThroughHit(t *testing.T) {
	cfg := smallCfg()
	cfg.Writes = WriteThroughNoAllocate
	c := mustNew(t, cfg)
	c.Access(0x40, false) // fill clean
	r := c.Access(0x40, true)
	if !r.Hit || !r.WroteThrough {
		t.Errorf("write-through hit = %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1 (immediate propagation)", c.Stats.Writebacks)
	}
	// The line must stay clean: evicting it later reports no dirty victim.
	setStride := uint64(512)
	c.Access(setStride+0x40, false)
	r = c.Access(2*setStride+0x40, false)
	if r.Evicted && r.EvictedDirty {
		t.Error("write-through left a dirty line behind")
	}
}

func TestWriteThroughNoAllocateOnMiss(t *testing.T) {
	cfg := smallCfg()
	cfg.Writes = WriteThroughNoAllocate
	c := mustNew(t, cfg)
	r := c.Access(0x80, true)
	if r.Hit || !r.WroteThrough {
		t.Errorf("write miss = %+v", r)
	}
	if c.Probe(0x80) {
		t.Error("no-allocate policy installed the line")
	}
	// A read after the store still misses (nothing was cached).
	if c.Access(0x80, false).Hit {
		t.Error("read after no-allocate store hit")
	}
}

func TestWriteBackIsDefault(t *testing.T) {
	c := mustNew(t, smallCfg())
	r := c.Access(0x80, true)
	if r.WroteThrough {
		t.Error("default policy wrote through")
	}
	if !c.Probe(0x80) {
		t.Error("write-allocate did not install the line")
	}
}

func TestWritePolicyString(t *testing.T) {
	if WriteBackAllocate.String() != "write-back" || WriteThroughNoAllocate.String() != "write-through" {
		t.Error("write policy strings wrong")
	}
}
