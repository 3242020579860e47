package gpu

import (
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/trace"
)

func TestDim3Count(t *testing.T) {
	cases := []struct {
		d    Dim3
		want int
	}{
		{Dim3{X: 4}, 4},
		{Dim3{X: 4, Y: 2}, 8},
		{Dim3{X: 4, Y: 2, Z: 3}, 24},
		{Dim3{}, 0},
		{Dim3{Y: 5}, 0},
	}
	for _, c := range cases {
		if got := c.d.Count(); got != c.want {
			t.Errorf("%v.Count() = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestLaunchBasics(t *testing.T) {
	l := Linear1D(4, 96)
	if l.NumBlocks() != 4 || l.ThreadsPerBlock() != 96 || l.NumThreads() != 384 {
		t.Errorf("launch geometry wrong: %+v", l)
	}
	if l.WarpsPerBlock() != 3 || l.NumWarps() != 12 {
		t.Errorf("warps wrong: per-block %d total %d", l.WarpsPerBlock(), l.NumWarps())
	}
}

func TestPartialWarp(t *testing.T) {
	l := Linear1D(2, 40) // 40 threads = 1 full warp + 1 partial of 8
	if l.WarpsPerBlock() != 2 {
		t.Fatalf("WarpsPerBlock = %d", l.WarpsPerBlock())
	}
	lo, hi := l.ThreadsOfWarp(1) // partial warp of block 0
	if lo != 32 || hi != 40 {
		t.Errorf("warp 1 covers [%d,%d), want [32,40)", lo, hi)
	}
	lo, hi = l.ThreadsOfWarp(2) // first warp of block 1
	if lo != 40 || hi != 72 {
		t.Errorf("warp 2 covers [%d,%d), want [40,72)", lo, hi)
	}
}

func TestWarpNeverSpansBlocks(t *testing.T) {
	f := func(blocks, tpb uint8) bool {
		l := Linear1D(int(blocks%8)+1, int(tpb%200)+1)
		for tid := 0; tid < l.NumThreads(); tid++ {
			if l.BlockOfWarp(l.WarpOf(tid)) != l.BlockOf(tid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestThreadsOfWarpPartition(t *testing.T) {
	// Every thread belongs to exactly one warp's [lo,hi) range.
	l := Linear1D(3, 50)
	covered := make([]int, l.NumThreads())
	for w := 0; w < l.NumWarps(); w++ {
		lo, hi := l.ThreadsOfWarp(w)
		for tid := lo; tid < hi; tid++ {
			covered[tid]++
			if l.WarpOf(tid) != w {
				t.Fatalf("thread %d in range of warp %d but WarpOf=%d", tid, w, l.WarpOf(tid))
			}
		}
	}
	for tid, c := range covered {
		if c != 1 {
			t.Fatalf("thread %d covered %d times", tid, c)
		}
	}
}

func TestLinearThreadID(t *testing.T) {
	l := Launch{Grid: Dim3{X: 2, Y: 2}, Block: Dim3{X: 4, Y: 2}}
	// Thread (1,1) of block (1,0): block linear = 1, thread linear = 1+1*4=5.
	got := l.LinearThreadID(Dim3{X: 1}, Dim3{X: 1, Y: 1})
	if want := 1*8 + 5; got != want {
		t.Errorf("LinearThreadID = %d, want %d", got, want)
	}
	// x varies fastest.
	if a, b := l.LinearThreadID(Dim3{}, Dim3{X: 1}), l.LinearThreadID(Dim3{}, Dim3{Y: 1}); a >= b {
		t.Errorf("x should vary fastest: x+1 -> %d, y+1 -> %d", a, b)
	}
}

func TestLaneOf(t *testing.T) {
	l := Linear1D(2, 64)
	if l.LaneOf(0) != 0 || l.LaneOf(33) != 1 || l.LaneOf(64) != 0 || l.LaneOf(95) != 31 {
		t.Error("LaneOf wrong")
	}
}

func TestLaunchValidate(t *testing.T) {
	if err := Linear1D(4, 256).Validate(); err != nil {
		t.Errorf("valid launch rejected: %v", err)
	}
	if err := Linear1D(0, 256).Validate(); err == nil {
		t.Error("zero-block launch accepted")
	}
	if err := Linear1D(1, 2048).Validate(); err == nil {
		t.Error("oversized block accepted")
	}
}

func TestCoalesceFullyCoalesced(t *testing.T) {
	c := NewCoalescer(128)
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*4) // 32 threads x 4B = one 128B line
	}
	reqs := c.Coalesce(0, 0x900, trace.Load, addrs)
	if len(reqs) != 1 {
		t.Fatalf("fully coalesced warp produced %d transactions", len(reqs))
	}
	if reqs[0].Addr != 0x1000 || reqs[0].Threads != 32 {
		t.Errorf("request = %+v", reqs[0])
	}
}

func TestCoalesceScattered(t *testing.T) {
	c := NewCoalescer(128)
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = uint64(i) * 4096 // every thread in its own line
	}
	reqs := c.Coalesce(1, 0x900, trace.Store, addrs)
	if len(reqs) != 32 {
		t.Fatalf("scattered warp produced %d transactions, want 32", len(reqs))
	}
	for i, r := range reqs {
		if r.Threads != 1 || r.Kind != trace.Store || r.WarpID != 1 {
			t.Errorf("req[%d] = %+v", i, r)
		}
	}
}

func TestCoalesceTwoSegments(t *testing.T) {
	c := NewCoalescer(128)
	// Threads 0-15 in line 0x1000, threads 16-31 in line 0x1080.
	addrs := make([]uint64, 32)
	for i := range addrs {
		addrs[i] = 0x1000 + uint64(i*8)
	}
	reqs := c.Coalesce(0, 1, trace.Load, addrs)
	if len(reqs) != 2 {
		t.Fatalf("got %d transactions, want 2", len(reqs))
	}
	if reqs[0].Addr != 0x1000 || reqs[1].Addr != 0x1080 {
		t.Errorf("segments = %#x, %#x", reqs[0].Addr, reqs[1].Addr)
	}
	if reqs[0].Threads != 16 || reqs[1].Threads != 16 {
		t.Errorf("thread counts = %d, %d", reqs[0].Threads, reqs[1].Threads)
	}
}

func TestCoalesceAlignment(t *testing.T) {
	c := NewCoalescer(128)
	reqs := c.Coalesce(0, 1, trace.Load, []uint64{0x107f, 0x1080})
	if len(reqs) != 2 {
		t.Fatalf("misaligned pair should straddle two lines, got %d", len(reqs))
	}
	if reqs[0].Addr != 0x1000 || reqs[1].Addr != 0x1080 {
		t.Errorf("lines = %#x, %#x", reqs[0].Addr, reqs[1].Addr)
	}
}

func TestCoalesceEmpty(t *testing.T) {
	if got := NewCoalescer(128).Coalesce(0, 1, trace.Load, nil); got != nil {
		t.Errorf("empty coalesce = %v", got)
	}
}

func TestCoalescerDefaults(t *testing.T) {
	if NewCoalescer(0).LineSize != DefaultLineSize {
		t.Error("zero line size did not default")
	}
}

func TestCoalesceTransactionCountProperty(t *testing.T) {
	c := NewCoalescer(128)
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		addrs := make([]uint64, len(raw))
		lines := make(map[uint64]bool)
		for i, v := range raw {
			addrs[i] = uint64(v)
			lines[uint64(v)&^127] = true
		}
		reqs := c.Coalesce(0, 1, trace.Load, addrs)
		// Exactly one transaction per distinct line, and thread counts sum
		// to the number of references.
		if len(reqs) != len(lines) {
			return false
		}
		sum := 0
		for _, r := range reqs {
			if !lines[r.Addr] || r.Addr%128 != 0 {
				return false
			}
			sum += r.Threads
		}
		return sum == len(addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func buildDivergentTrace() *trace.KernelTrace {
	// 1 block of 64 threads (2 warps). Even threads execute PCs {A, B};
	// odd threads execute only {A}. Every thread also issues C at the end.
	k := &trace.KernelTrace{Name: "div", GridDim: 1, BlockDim: 64}
	for tid := 0; tid < 64; tid++ {
		tt := trace.ThreadTrace{ThreadID: tid}
		tt.Accesses = append(tt.Accesses, trace.Access{PC: 0xA, Addr: uint64(0x10000 + tid*4), Kind: trace.Load})
		if tid%2 == 0 {
			tt.Accesses = append(tt.Accesses, trace.Access{PC: 0xB, Addr: uint64(0x20000 + tid*4), Kind: trace.Load})
		}
		tt.Accesses = append(tt.Accesses, trace.Access{PC: 0xC, Addr: uint64(0x30000 + tid*4), Kind: trace.Store})
		k.Threads = append(k.Threads, tt)
	}
	return k
}

func TestBuildWarpTracesUniform(t *testing.T) {
	// 2 blocks x 32 threads; each thread does LD a[tid] with 4B elements:
	// each warp's instruction coalesces to exactly 1 transaction.
	k := &trace.KernelTrace{Name: "vecadd", GridDim: 2, BlockDim: 32}
	for tid := 0; tid < 64; tid++ {
		k.Threads = append(k.Threads, trace.ThreadTrace{
			ThreadID: tid,
			Accesses: []trace.Access{{PC: 0x100, Addr: uint64(0x1000 + tid*4), Kind: trace.Load}},
		})
	}
	warps := NewCoalescer(128).BuildWarpTraces(k)
	if len(warps) != 2 {
		t.Fatalf("got %d warps", len(warps))
	}
	for w, wt := range warps {
		if len(wt.Requests) != 1 {
			t.Fatalf("warp %d has %d requests, want 1", w, len(wt.Requests))
		}
		if wt.Requests[0].Threads != 32 {
			t.Errorf("warp %d coalesced %d threads", w, wt.Requests[0].Threads)
		}
		if wt.Block != w {
			t.Errorf("warp %d block = %d", w, wt.Block)
		}
	}
	if warps[0].Requests[0].Addr != 0x1000 || warps[1].Requests[0].Addr != 0x1080 {
		t.Errorf("warp lines = %#x, %#x", warps[0].Requests[0].Addr, warps[1].Requests[0].Addr)
	}
}

func TestBuildWarpTracesDivergent(t *testing.T) {
	warps := NewCoalescer(128).BuildWarpTraces(buildDivergentTrace())
	if len(warps) != 2 {
		t.Fatalf("got %d warps", len(warps))
	}
	for _, wt := range warps {
		// Expected issue order per warp: A (all 32 lanes), B (16 even
		// lanes), C (all 32 lanes).
		var pcs []uint64
		for _, r := range wt.Requests {
			if len(pcs) == 0 || pcs[len(pcs)-1] != r.PC {
				pcs = append(pcs, r.PC)
			}
		}
		want := []uint64{0xA, 0xB, 0xC}
		if len(pcs) != len(want) {
			t.Fatalf("warp %d pc sequence = %#v", wt.WarpID, pcs)
		}
		for i := range want {
			if pcs[i] != want[i] {
				t.Fatalf("warp %d pc sequence = %#v, want A,B,C", wt.WarpID, pcs)
			}
		}
		// B covers only 16 threads.
		sumB := 0
		for _, r := range wt.Requests {
			if r.PC == 0xB {
				sumB += r.Threads
			}
		}
		if sumB != 16 {
			t.Errorf("warp %d B covered %d threads, want 16", wt.WarpID, sumB)
		}
	}
}

func TestBuildWarpTracesConservation(t *testing.T) {
	// Total threads covered by all requests equals total accesses.
	k := buildDivergentTrace()
	warps := NewCoalescer(128).BuildWarpTraces(k)
	covered := 0
	for _, wt := range warps {
		for _, r := range wt.Requests {
			covered += r.Threads
		}
	}
	if covered != k.NumAccesses() {
		t.Errorf("covered %d thread-accesses, trace has %d", covered, k.NumAccesses())
	}
}
