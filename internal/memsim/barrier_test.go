package memsim

import (
	"testing"

	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// barrierWarps builds one block of n warps: warp 0 does `slow` loads, the
// rest one load, then all hit a barrier, then every warp does one more
// load. Without the barrier the fast warps would finish long before warp
// 0; with it, the post-barrier loads of every warp issue after warp 0's
// pre-barrier phase completes.
func barrierWarps(n, slow int) []trace.WarpTrace {
	warps := make([]trace.WarpTrace, n)
	for w := range warps {
		warps[w].WarpID = w
		warps[w].Block = 0
		pre := 1
		if w == 0 {
			pre = slow
		}
		for j := 0; j < pre; j++ {
			warps[w].Requests = append(warps[w].Requests, trace.Request{
				PC: 0x10, Addr: uint64(w)<<20 | uint64(j*128), Kind: trace.Load})
		}
		warps[w].Requests = append(warps[w].Requests, trace.Request{PC: 0xBB, Kind: trace.Sync})
		warps[w].Requests = append(warps[w].Requests, trace.Request{
			PC: 0x20, Addr: uint64(w)<<20 | 0x80000, Kind: trace.Load})
	}
	return warps
}

func TestBarrierCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCores = 1
	sim, err := New(barrierWarps(4, 50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 50 + 3 + 4 memory requests; the 4 syncs are not memory requests.
	if m.Requests != 50+3+4 {
		t.Errorf("Requests = %d, want 57 (barriers must not count)", m.Requests)
	}
}

func TestBarrierDelaysFastWarps(t *testing.T) {
	// With the barrier, total cycles are bounded below by warp 0's long
	// pre-barrier phase even though other warps are short.
	run := func(withBarrier bool) uint64 {
		warps := barrierWarps(4, 80)
		if !withBarrier {
			for w := range warps {
				reqs := warps[w].Requests[:0]
				for _, r := range warps[w].Requests {
					if r.Kind != trace.Sync {
						reqs = append(reqs, r)
					}
				}
				warps[w].Requests = reqs
			}
		}
		cfg := DefaultConfig()
		cfg.NumCores = 1
		sim, err := New(warps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	with, without := run(true), run(false)
	if with < without {
		t.Errorf("barrier run (%d cycles) shorter than barrier-free (%d)", with, without)
	}
}

func TestBarrierAcrossBlocksIndependent(t *testing.T) {
	// Barriers are per-block: two blocks with barriers must not wait on
	// each other. Block 1's warps have short streams and finish early.
	warps := barrierWarps(2, 30)
	extra := barrierWarps(2, 1)
	for i := range extra {
		extra[i].WarpID = 2 + i
		extra[i].Block = 1
	}
	warps = append(warps, extra...)
	cfg := DefaultConfig()
	cfg.NumCores = 2
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierWithRetiredWarps(t *testing.T) {
	// One warp of the block has no barrier at all (divergent path) and
	// retires early; the others must still be released.
	warps := barrierWarps(3, 5)
	warps[2].Requests = []trace.Request{
		{PC: 0x10, Addr: 0x999000, Kind: trace.Load},
	}
	cfg := DefaultConfig()
	cfg.NumCores = 1
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierMismatchedCounts(t *testing.T) {
	// Warp 0 has two barriers, warp 1 only one: after warp 1 retires, warp
	// 0's second barrier must release on the live-population rule rather
	// than deadlock.
	warps := make([]trace.WarpTrace, 2)
	for w := range warps {
		warps[w].WarpID = w
		warps[w].Block = 0
		warps[w].Requests = []trace.Request{
			{PC: 0x10, Addr: uint64(w) << 16, Kind: trace.Load},
			{PC: 0xB0, Kind: trace.Sync},
			{PC: 0x18, Addr: uint64(w)<<16 | 0x100, Kind: trace.Load},
		}
	}
	warps[0].Requests = append(warps[0].Requests,
		trace.Request{PC: 0xB8, Kind: trace.Sync},
		trace.Request{PC: 0x20, Addr: 0x777000, Kind: trace.Load},
	)
	cfg := DefaultConfig()
	cfg.NumCores = 1
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2+2+1 {
		t.Errorf("Requests = %d, want 5", m.Requests)
	}
}

func TestBarrierReleasedByRetirement(t *testing.T) {
	// Warp A parks at a barrier that block-mate B never reaches. B's
	// DRAM read completes at cycle 30 while C, on the same core, waits on
	// channel 0 until cycle 71, so no warp of the core is ready. B then
	// retires, which releases A for cycle 31; A passes its second barrier
	// alone and makes four dependent reads on idle channels. The run takes
	// 154 cycles; had A waited for C's completion, it would take 194.
	ld := func(addr uint64) trace.Request { return trace.Request{PC: 0x10, Addr: addr, Kind: trace.Load} }
	sync := trace.Request{PC: 0xB0, Kind: trace.Sync}
	warps := []trace.WarpTrace{
		{WarpID: 0, Block: 0, Requests: []trace.Request{sync, sync, ld(0x80), ld(0x100), ld(0x180), ld(0x200)}},
		{WarpID: 1, Block: 0, Requests: []trace.Request{ld(0x200000)}},
		{WarpID: 2, Block: 1, Requests: []trace.Request{ld(0x400000), ld(0x800000), ld(0xc00000)}},
	}
	cfg := DefaultConfig()
	cfg.NumCores = 1
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles != 154 || m.Requests != 8 {
		t.Errorf("Cycles, Requests = %d, %d; want 154, 8", m.Cycles, m.Requests)
	}
}

func TestBarrierEndToEnd(t *testing.T) {
	// bp carries a real barrier through emulation, coalescing, profiling,
	// generation and simulation; both sides must complete and stay close.
	// (Covered in more depth by core's accuracy tests; this guards the
	// plumbing.)
	cfg := DefaultConfig()
	cfg.NumCores = 4
	tr := traceOf(t, "bp")
	warps := coalesce(tr)
	hasSync := false
	for _, w := range warps {
		for _, r := range w.Requests {
			if r.Kind == trace.Sync {
				hasSync = true
			}
		}
	}
	if !hasSync {
		t.Fatal("bp warp streams carry no barrier")
	}
	sim, err := New(warps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

// helpers shared with the barrier tests.
func traceOf(t *testing.T, name string) *trace.KernelTrace {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	tr, err := s.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func coalesce(tr *trace.KernelTrace) []trace.WarpTrace {
	return gpu.NewCoalescer(128).BuildWarpTraces(tr)
}
