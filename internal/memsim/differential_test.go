// Differential tests: the full production simulator against the
// refmodel hierarchy, in the single-warp regime where the simulator's
// memory-request order is exactly program order and every cache and
// DRAM-traffic outcome is deterministic.
package memsim_test

import (
	"testing"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/refmodel"
	"github.com/uteda/gmap/internal/trace"
)

// TestSingleWarpMatchesReferenceHierarchy replays one warp's request
// stream through the production simulator (one core, unbounded MSHRs, no
// prefetchers) and through the reference L1/banked-L2 hierarchy,
// requiring identical L1 and L2 statistics, demand-request counts and
// DRAM read/write traffic.
func TestSingleWarpMatchesReferenceHierarchy(t *testing.T) {
	n := proptest.N(t, 150, 1000)
	for i := 0; i < n; i++ {
		seed := uint64(0x515151 + i)
		g := proptest.New(seed)
		l1cfg := g.CacheConfig()
		l2cfg := g.CacheConfig()
		// Bank count must divide the L2's set count.
		banks := []int{1, 2, 4}[g.R.Intn(3)]
		for l2cfg.SizeBytes/(l2cfg.Ways*l2cfg.LineSize) < banks {
			banks /= 2
		}
		reqs := g.Requests(30+g.R.Intn(150), 0.05)
		warps := []trace.WarpTrace{{WarpID: 0, Block: 0, Requests: reqs}}

		ref, err := refmodel.NewHierarchy(l1cfg, l2cfg, banks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		demand := uint64(0)
		for _, r := range reqs {
			if r.Kind == trace.Sync {
				continue
			}
			demand++
			ref.Access(r.Addr, r.Kind == trace.Store)
		}

		cfg := memsim.Config{
			NumCores:     1,
			L1:           l1cfg,
			L2:           l2cfg,
			L2Banks:      banks,
			MSHRsPerCore: 0, // unbounded: the warp can never stall on MSHRs
			DRAM:         dram.DefaultGDDR3(),
			Scheduler:    memsim.LRR,
		}
		sim, err := memsim.New(warps, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if m.Requests != demand {
			t.Fatalf("seed %d: simulator issued %d requests, stream has %d demand requests",
				seed, m.Requests, demand)
		}
		if m.MSHRStalls != 0 {
			t.Fatalf("seed %d: %d MSHR stalls with an unbounded MSHR file", seed, m.MSHRStalls)
		}
		if m.L1 != ref.L1.Stats {
			t.Fatalf("seed %d: L1 stats diverged:\nproduction %+v\nreference  %+v", seed, m.L1, ref.L1.Stats)
		}
		if l2 := ref.L2Stats(); m.L2 != l2 {
			t.Fatalf("seed %d: L2 stats diverged:\nproduction %+v\nreference  %+v", seed, m.L2, l2)
		}
		if m.DRAM.Reads != ref.DRAMReads || m.DRAM.Writes != ref.DRAMWrites {
			t.Fatalf("seed %d: DRAM traffic diverged: production %d reads / %d writes, reference %d / %d",
				seed, m.DRAM.Reads, m.DRAM.Writes, ref.DRAMReads, ref.DRAMWrites)
		}
	}
}

// TestMissRateMonotoneInL1Size: at the system level, growing the L1 by
// whole ways (fixed sets and line size) must not increase the L1 miss
// count for a read-only single-warp stream — the inclusion property
// surfaced through the full simulator.
func TestMissRateMonotoneInL1Size(t *testing.T) {
	n := proptest.N(t, 50, 300)
	for i := 0; i < n; i++ {
		seed := uint64(0x919191 + i)
		g := proptest.New(seed)
		addrs := g.AddrStream(200, 128)
		reqs := make([]trace.Request, len(addrs))
		for j, a := range addrs {
			reqs[j] = trace.Request{PC: 0x400, Addr: a, Kind: trace.Load, Threads: 1}
		}
		prev := ^uint64(0)
		for _, ways := range []int{1, 2, 4, 8} {
			cfg := memsim.DefaultConfig()
			cfg.NumCores = 1
			cfg.MSHRsPerCore = 0
			cfg.L1 = cache.Config{SizeBytes: 8 * ways * 128, Ways: ways, LineSize: 128}
			sim, err := memsim.New([]trace.WarpTrace{{Requests: reqs}}, cfg)
			if err != nil {
				t.Fatalf("seed %d ways %d: %v", seed, ways, err)
			}
			m, err := sim.Run()
			if err != nil {
				t.Fatalf("seed %d ways %d: %v", seed, ways, err)
			}
			if m.L1.Misses > prev {
				t.Fatalf("seed %d: L1 misses grew from %d to %d at %d ways", seed, prev, m.L1.Misses, ways)
			}
			prev = m.L1.Misses
		}
	}
}
