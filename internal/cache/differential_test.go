// Differential tests: the production set-associative cache against the
// refmodel recency-list reference, on generated access/fill/probe streams.
// External test package so proptest (which imports cache) can be used.
package cache_test

import (
	"testing"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/refmodel"
)

// model is what a differential test drives: a cache, a banked cache or
// one of their references.
type model interface {
	Access(addr uint64, write bool) cache.Result
	Fill(addr uint64) cache.Result
	Probe(addr uint64) bool
}

// driveBoth replays one generated op stream through both caches and
// fails on the first diverging result or final statistics mismatch.
func driveBoth(t *testing.T, seed uint64, g *proptest.G, prod *cache.Cache, ref *refmodel.Cache) {
	t.Helper()
	ops := 100 + g.R.Intn(200)
	replay(t, seed, g, g.AddrStream(ops, uint64(prod.Config().LineSize)), prod, ref)
	if prod.Stats != ref.Stats {
		t.Fatalf("seed %d: stats diverged:\nproduction %+v\nreference  %+v", seed, prod.Stats, ref.Stats)
	}
}

// replay sends addrs through both models as a random mix of demand
// accesses, prefetch fills and probes drawn from g, and fails on the
// first diverging result.
func replay(t *testing.T, seed uint64, g *proptest.G, addrs []uint64, prod, ref model) {
	t.Helper()
	for oi, a := range addrs {
		switch p := g.R.Float64(); {
		case p < 0.70:
			write := g.R.Bool(0.3)
			pr, rr := prod.Access(a, write), ref.Access(a, write)
			if pr != rr {
				t.Fatalf("seed %d op %d: Access(%#x, write=%v) = %+v, reference %+v",
					seed, oi, a, write, pr, rr)
			}
		case p < 0.85:
			pr, rr := prod.Fill(a), ref.Fill(a)
			if pr != rr {
				t.Fatalf("seed %d op %d: Fill(%#x) = %+v, reference %+v", seed, oi, a, pr, rr)
			}
		default:
			if pp, rp := prod.Probe(a), ref.Probe(a); pp != rp {
				t.Fatalf("seed %d op %d: Probe(%#x) = %v, reference %v", seed, oi, a, pp, rp)
			}
		}
	}
}

// TestCacheMatchesReference replays generated demand/fill/probe streams
// through random set-associative LRU geometries and the reference cache,
// requiring identical per-op results (hit, write-through, prefetch-hit,
// victim address, victim dirtiness) and identical final statistics.
func TestCacheMatchesReference(t *testing.T) {
	n := proptest.N(t, 200, 1000)
	for i := 0; i < n; i++ {
		seed := uint64(0x5e7a55 + i)
		g := proptest.New(seed)
		cfg := g.CacheConfig()
		prod, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := refmodel.NewCache(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		driveBoth(t, seed, g, prod, ref)
	}
}

// TestFullyAssociativeMatchesReference drives the single-set geometry —
// the refmodel's explicitly fully-associative constructor against the
// production cache configured with one set.
func TestFullyAssociativeMatchesReference(t *testing.T) {
	n := proptest.N(t, 200, 1000)
	for i := 0; i < n; i++ {
		seed := uint64(0xf0117 + i)
		g := proptest.New(seed)
		lines := []int{1, 2, 4, 8, 16}[g.R.Intn(5)]
		lineSize := []int{32, 64, 128}[g.R.Intn(3)]
		writes := cache.WriteBackAllocate
		if g.R.Bool(0.4) {
			writes = cache.WriteThroughNoAllocate
		}
		cfg := cache.Config{SizeBytes: lines * lineSize, Ways: lines, LineSize: lineSize, Writes: writes}
		prod, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := refmodel.NewFullyAssocCache(lines, lineSize, writes)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		driveBoth(t, seed, g, prod, ref)
	}
}

// TestMissCountMonotoneInWays is the inclusion-property invariant: with
// the set count and line size fixed, growing the associativity of an LRU
// cache can never increase the miss count on any stream (each set is an
// LRU stack, and a stack of depth w+1 contains the stack of depth w).
func TestMissCountMonotoneInWays(t *testing.T) {
	n := proptest.N(t, 100, 500)
	for i := 0; i < n; i++ {
		seed := uint64(0x304070 + i)
		g := proptest.New(seed)
		lineSize := []int{32, 64, 128}[g.R.Intn(3)]
		sets := []int{1, 2, 4, 8}[g.R.Intn(4)]
		addrs := g.AddrStream(300, uint64(lineSize))
		prev := ^uint64(0)
		for _, ways := range []int{1, 2, 3, 4, 6, 8} {
			cfg := cache.Config{SizeBytes: sets * ways * lineSize, Ways: ways, LineSize: lineSize}
			c, err := cache.New(cfg)
			if err != nil {
				t.Fatalf("seed %d ways %d: %v", seed, ways, err)
			}
			for _, a := range addrs {
				c.Access(a, false)
			}
			if c.Stats.Misses > prev {
				t.Fatalf("seed %d: misses grew from %d to %d when ways reached %d (sets=%d line=%d)",
					seed, prev, c.Stats.Misses, ways, sets, lineSize)
			}
			prev = c.Stats.Misses
		}
	}
}

// figureStreams returns two proptest streams for a cache with the given
// set count and line size: one as generated, which spreads over many
// sets, and one folded into four sets so the ways fill and evict.
func figureStreams(g *proptest.G, sets, lineSize int) (spread, folded []uint64) {
	spread = g.AddrStream(3000, uint64(lineSize))
	const foldSets = 4
	folded = make([]uint64, len(spread))
	for i, a := range spread {
		line, off := a/uint64(lineSize), a%uint64(lineSize)
		line = line/foldSets*uint64(sets) + line%foldSets
		folded[i] = line*uint64(lineSize) + off
	}
	return spread, folded
}

// TestFigureGeometriesMatchReference replays proptest streams through
// every L1 geometry of Fig 6a and every L2 geometry of Fig 6b (up to 16
// ways and 65,536 sets, beyond proptest's own geometries) and the
// reference cache.
func TestFigureGeometriesMatchReference(t *testing.T) {
	var names []string
	var cfgs []cache.Config
	for _, gen := range eval.L1Sweep(0) {
		mc, err := gen.Make()
		if err != nil {
			t.Fatal(err)
		}
		names, cfgs = append(names, gen.Label), append(cfgs, mc.L1)
	}
	for _, gen := range eval.L2Sweep(0) {
		mc, err := gen.Make()
		if err != nil {
			t.Fatal(err)
		}
		names, cfgs = append(names, gen.Label), append(cfgs, mc.L2)
	}
	for i, cfg := range cfgs {
		t.Run(names[i], func(t *testing.T) {
			seed := uint64(0xf16a + i)
			g := proptest.New(seed)
			sets, err := cfg.Validate()
			if err != nil {
				t.Fatal(err)
			}
			prod, err := cache.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refmodel.NewCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spread, folded := figureStreams(g, sets, cfg.LineSize)
			replay(t, seed, g, spread, prod, ref)
			replay(t, seed, g, folded, prod, ref)
			if prod.Stats != ref.Stats {
				t.Fatalf("stats diverged:\nproduction %+v\nreference  %+v", prod.Stats, ref.Stats)
			}
			if prod.Stats.Evictions == 0 {
				t.Fatal("no line was evicted; the folded stream should overfill its sets")
			}
		})
	}
}

// refBanked is a reference for cache.Banked: line n goes to bank n mod
// banks, as line n/banks of that bank's reference cache.
type refBanked struct {
	banks    []*refmodel.Cache
	lineSize uint64
}

func (b *refBanked) route(addr uint64) (*refmodel.Cache, uint64, uint64) {
	n, nb := addr/b.lineSize, uint64(len(b.banks))
	return b.banks[n%nb], n % nb, n/nb*b.lineSize + addr%b.lineSize
}

func (b *refBanked) unslice(res cache.Result, bank uint64) cache.Result {
	if res.Evicted {
		res.EvictedAddr = (res.EvictedAddr/b.lineSize*uint64(len(b.banks)) + bank) * b.lineSize
	}
	return res
}

func (b *refBanked) Access(addr uint64, write bool) cache.Result {
	c, bank, a := b.route(addr)
	return b.unslice(c.Access(a, write), bank)
}

func (b *refBanked) Fill(addr uint64) cache.Result {
	c, bank, a := b.route(addr)
	return b.unslice(c.Fill(a), bank)
}

func (b *refBanked) Probe(addr uint64) bool {
	c, _, a := b.route(addr)
	return c.Probe(a)
}

// TestBanked16WayMatchesReference: a 1MB 16-way L2 in 8 banks, the Table
// 2 L2 at Fig 6b's highest associativity, against eight reference caches.
func TestBanked16WayMatchesReference(t *testing.T) {
	const banks = 8
	cfg := cache.Config{SizeBytes: 1 << 20, Ways: 16, LineSize: 128}
	prod, err := cache.NewBanked(cfg, banks)
	if err != nil {
		t.Fatal(err)
	}
	slice := cfg
	slice.SizeBytes /= banks
	sets, err := slice.Validate()
	if err != nil {
		t.Fatal(err)
	}
	ref := &refBanked{lineSize: uint64(cfg.LineSize)}
	for i := 0; i < banks; i++ {
		c, err := refmodel.NewCache(slice)
		if err != nil {
			t.Fatal(err)
		}
		ref.banks = append(ref.banks, c)
	}
	const seed = 0xba4c
	g := proptest.New(seed)
	// Fold over banks*sets so every bank's folded sets overfill.
	spread, folded := figureStreams(g, banks*sets, cfg.LineSize)
	replay(t, seed, g, spread, prod, ref)
	replay(t, seed, g, folded, prod, ref)
	var want cache.Stats
	for _, c := range ref.banks {
		want.Add(c.Stats)
	}
	if got := prod.Stats(); got != want {
		t.Fatalf("stats diverged:\nproduction %+v\nreference  %+v", got, want)
	}
	if want.Evictions == 0 {
		t.Fatal("no line was evicted; the folded stream should overfill its sets")
	}
}
