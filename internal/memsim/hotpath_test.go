package memsim

import (
	"fmt"
	"testing"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/prefetch"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/trace"
)

// GoldenSeed is TestSimGolden's generator seed for case i.
func GoldenSeed(i int) uint64 { return uint64(0x9a7a11e1) + uint64(i)*7919 }

// GoldenCase builds TestSimGolden's machine and workload for seed:
// single- and multi-launch sequences with barrier-carrying warps, bounded
// and unbounded MSHR files, both prefetchers and every scheduling policy.
// The configuration carries no observability; the golden attaches its own.
func GoldenCase(seed uint64) ([][]trace.WarpTrace, Config) {
	g := proptest.New(seed)
	l1cfg := g.CacheConfig()
	l2cfg := g.CacheConfig()
	// Bank count must divide the L2's set count.
	banks := []int{1, 2, 4}[g.R.Intn(3)]
	for l2cfg.SizeBytes/(l2cfg.Ways*l2cfg.LineSize) < banks {
		banks /= 2
	}
	launches := [][]trace.WarpTrace{g.WarpSet(8, 0.08)}
	if g.R.Intn(3) == 0 {
		launches = append(launches, g.WarpSet(5, 0.08))
	}
	cfg := Config{
		NumCores:     1 + g.R.Intn(6),
		L1:           l1cfg,
		L2:           l2cfg,
		L2Banks:      banks,
		MSHRsPerCore: []int{0, 1, 4, 64}[g.R.Intn(4)],
		DRAM:         dram.DefaultGDDR3(),
		Scheduler:    []SchedPolicy{LRR, GTO, PSelf}[g.R.Intn(3)],
		SchedPself:   0.7,
		Seed:         g.R.Uint64(),
	}
	if g.R.Intn(3) == 0 {
		cfg.L1Prefetch = prefetch.DefaultStrideConfig()
	}
	if g.R.Intn(3) == 0 {
		cfg.L2Prefetch = prefetch.DefaultStreamConfig()
		cfg.L2Prefetch.LineSize = uint64(l2cfg.LineSize)
	}
	return launches, cfg
}

// fullScanNextReady is what nextEvent's warp part answers from the
// per-core bounds: the smallest nextReady slot above cycle over every
// core's active warps.
func fullScanNextReady(s *Simulator, cycle uint64) uint64 {
	next := notReady
	for c := range s.cores {
		for _, wi := range s.cores[c].active {
			if t := s.nextReady[wi]; t > cycle && t < next {
				next = t
			}
		}
	}
	return next
}

// checkedRun runs the simulation, comparing nextEvent's warp answer with
// the full scan at every call, and returns how many answers it compared.
func checkedRun(t *testing.T, name string, launches [][]trace.WarpTrace, cfg Config) int {
	t.Helper()
	sim, err := NewSequence(launches, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	calls, bad := 0, 0
	sim.checkNextReady = func(cycle, next uint64) {
		calls++
		if want := fullScanNextReady(sim, cycle); next != want && bad == 0 {
			bad++
			t.Errorf("%s: at cycle %d the per-core bounds give %d, the full scan %d", name, cycle, next, want)
		}
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return calls
}

// TestNextEventMatchesScan checks the next-event search's per-core
// bounds against a scan of every active warp, at every call, over the
// TestSimGolden cases. Each case also runs with two resident blocks on
// one core, so blocks are admitted mid-run next to a block whose warps
// wait, which is when the search must fall back to scanning a core. A
// hand-built case releases a barrier by retirement onto a warp whose
// stream ends at that barrier.
func TestNextEventMatchesScan(t *testing.T) {
	calls := 0
	for i := 0; i < proptest.N(t, 60, 400); i++ {
		seed := GoldenSeed(i)
		launches, cfg := GoldenCase(seed)
		calls += checkedRun(t, fmt.Sprintf("golden %#x", seed), launches, cfg)
		cfg.NumCores, cfg.BlocksPerCore = 1, 2
		calls += checkedRun(t, fmt.Sprintf("two-block %#x", seed), launches, cfg)
	}
	if calls == 0 {
		t.Fatal("nextEvent was never called")
	}

	// Warp 0's stream ends at a barrier its block-mate never reaches. The
	// block-mate's read completes at cycle 30 and it retires, releasing
	// warp 0 done, while warp 2 on the same core waits on DRAM until 71.
	ld := func(addr uint64) trace.Request { return trace.Request{PC: 0x10, Addr: addr, Kind: trace.Load} }
	warps := []trace.WarpTrace{
		{WarpID: 0, Block: 0, Requests: []trace.Request{{PC: 0xB0, Kind: trace.Sync}}},
		{WarpID: 1, Block: 0, Requests: []trace.Request{ld(0x200000)}},
		{WarpID: 2, Block: 1, Requests: []trace.Request{ld(0x400000), ld(0x800000), ld(0xc00000)}},
	}
	cfg := DefaultConfig()
	cfg.NumCores = 1
	if checkedRun(t, "barrier-ended stream", [][]trace.WarpTrace{warps}, cfg) == 0 {
		t.Fatal("barrier-ended stream: nextEvent was never called")
	}
}

// TestMSHROverCommit pins how a miss that passed the full-file check on an
// L2 copy it then lost goes to DRAM: without an MSHR entry, with the
// core's occupancy held at capacity, and with a later secondary miss on
// its line taking the entry once one is free.
func TestMSHROverCommit(t *testing.T) {
	// One core, one MSHR, a one-line L1 with 32 B lines, and a
	// direct-mapped two-set L2 with 128 B lines (set = address bit 7).
	cfg := DefaultConfig()
	cfg.NumCores = 1
	cfg.MSHRsPerCore = 1
	cfg.L1 = cache.Config{SizeBytes: 32, Ways: 1, LineSize: 32}
	cfg.L2 = cache.Config{SizeBytes: 256, Ways: 1, LineSize: 128}
	cfg.L2Banks = 1
	ld := func(addr uint64) trace.Request { return trace.Request{PC: 0x10, Addr: addr, Kind: trace.Load} }
	const w, v, z, other = 0x080, 0x1000, 0x2000, 0x4080
	warps := make([]trace.WarpTrace, 4)
	for i := range warps {
		warps[i] = trace.WarpTrace{WarpID: i, Block: 0, Requests: []trace.Request{ld(w)}}
	}
	s, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	core := &s.cores[0]

	// Warp 0's miss on w takes the only entry.
	if !s.access(0, 0, ld(w), 0) || core.entries != 1 || !s.mshrFull(core) {
		t.Fatalf("first miss: entries = %d, want a full file", core.entries)
	}
	// Put a dirty v in the L1 and z's line in the L2 set v's line maps to.
	core.l1.Access(v, true)
	s.l2.Access(z, false)
	// Warp 1's miss on z passes the full-file check on the L2 copy, but
	// writing back the L1 victim v evicts it, so the read goes to DRAM.
	if !s.access(0, 1, ld(z), 1) {
		t.Fatal("miss on an L2-resident line stalled")
	}
	slot, ok := core.lineSlot[core.l1.LineAddr(z)]
	if !ok {
		t.Fatal("miss on z sent no DRAM read")
	}
	if core.flights[slot].hasEntry {
		t.Error("read on z took an entry from a full file")
	}
	if len(core.lineSlot) != 2 || core.entries != 1 {
		t.Errorf("%d flights, %d entries; want 2 flights, 1 entry (capacity)", len(core.lineSlot), core.entries)
	}
	// A new primary miss still stalls, and the DRAM saw both reads.
	if s.access(0, 3, ld(other), 1) {
		t.Error("primary miss issued past a full file")
	}
	if got := s.dram.Stats.Reads; got != 2 {
		t.Errorf("DRAM reads = %d, want 2", got)
	}
	// Once w's read completes, a secondary miss on z takes the free entry.
	s.complete(dram.Completion{ID: flightID(0, core.lineSlot[core.l1.LineAddr(w)]), Done: 2})
	if core.entries != 0 {
		t.Fatalf("entries = %d after w's read completed", core.entries)
	}
	if !s.access(0, 2, ld(z), 2) || !core.flights[slot].hasEntry || core.entries != 1 {
		t.Errorf("merge into z's read: hasEntry %v, entries %d; want true, 1", core.flights[slot].hasEntry, core.entries)
	}
}
