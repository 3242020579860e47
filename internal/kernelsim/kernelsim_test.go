package kernelsim

import (
	"testing"
	"testing/quick"

	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/trace"
)

func vecAdd(blocks, tpb, iters int) *Kernel {
	total := int64(blocks * tpb)
	return &Kernel{
		Name:   "vecadd",
		Launch: gpu.Linear1D(blocks, tpb),
		Body: []Stmt{
			Loop{Count: iters, Body: []Stmt{
				MemOp{PC: 0x100, Kind: trace.Load, Addr: AddrExpr{Base: 0x10000, TidCoef: 4, IterCoef: []int64{4 * total}}},
				MemOp{PC: 0x108, Kind: trace.Load, Addr: AddrExpr{Base: 0x80000, TidCoef: 4, IterCoef: []int64{4 * total}}},
				MemOp{PC: 0x110, Kind: trace.Store, Addr: AddrExpr{Base: 0xF0000, TidCoef: 4, IterCoef: []int64{4 * total}}},
			}},
		},
	}
}

func TestVecAddShape(t *testing.T) {
	k := vecAdd(2, 64, 3)
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumThreads() != 128 {
		t.Fatalf("threads = %d", tr.NumThreads())
	}
	if tr.NumAccesses() != 128*3*3 {
		t.Fatalf("accesses = %d", tr.NumAccesses())
	}
}

func TestVecAddAddressing(t *testing.T) {
	tr, err := vecAdd(2, 64, 3).Emulate()
	if err != nil {
		t.Fatal(err)
	}
	// Thread 5, iteration 2, first load: 0x10000 + 4*5 + 2*4*128.
	a := tr.Threads[5].Accesses[6] // 3 ops per iter, iter 2 starts at index 6
	if want := uint64(0x10000 + 20 + 1024); a.Addr != want || a.PC != 0x100 {
		t.Errorf("access = %+v, want addr %#x pc 0x100", a, want)
	}
}

func TestInterThreadStride(t *testing.T) {
	tr, err := vecAdd(1, 32, 1).Emulate()
	if err != nil {
		t.Fatal(err)
	}
	for tid := 1; tid < 32; tid++ {
		d := tr.Threads[tid].Accesses[0].Addr - tr.Threads[tid-1].Accesses[0].Addr
		if d != 4 {
			t.Fatalf("inter-thread stride at tid %d = %d, want 4", tid, d)
		}
	}
}

func TestIntraThreadStride(t *testing.T) {
	tr, err := vecAdd(1, 32, 4).Emulate()
	if err != nil {
		t.Fatal(err)
	}
	// Same PC across iterations: stride = 4 * totalThreads = 128.
	acc := tr.Threads[0].Accesses
	for j := 3; j < len(acc); j += 3 {
		if d := acc[j].Addr - acc[j-3].Addr; d != 128 {
			t.Fatalf("intra stride = %d, want 128", d)
		}
	}
}

func TestDivergence(t *testing.T) {
	k := &Kernel{
		Name:   "div",
		Launch: gpu.Linear1D(1, 64),
		Body: []Stmt{
			MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{Base: 0x1000, TidCoef: 4}},
			If{
				Pred: TidMod{M: 2, R: 0},
				Then: []Stmt{MemOp{PC: 2, Kind: trace.Load, Addr: AddrExpr{Base: 0x2000, TidCoef: 4}}},
				Else: []Stmt{MemOp{PC: 3, Kind: trace.Store, Addr: AddrExpr{Base: 0x3000, TidCoef: 4}}},
			},
		},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 64; tid++ {
		acc := tr.Threads[tid].Accesses
		if len(acc) != 2 {
			t.Fatalf("thread %d has %d accesses", tid, len(acc))
		}
		wantPC := uint64(3)
		if tid%2 == 0 {
			wantPC = 2
		}
		if acc[1].PC != wantPC {
			t.Errorf("thread %d second pc = %#x, want %#x", tid, acc[1].PC, wantPC)
		}
	}
}

func TestTidLess(t *testing.T) {
	p := TidLess{N: 10}
	if !p.Holds(9, nil, 0) || p.Holds(10, nil, 0) {
		t.Error("TidLess wrong")
	}
}

func TestTidModDegenerate(t *testing.T) {
	if (TidMod{M: 0, R: 0}).Holds(5, nil, 0) {
		t.Error("TidMod{0} should never hold")
	}
}

func TestHashProbDeterministic(t *testing.T) {
	p := HashProb{P: 0.5}
	for tid := 0; tid < 100; tid++ {
		a := p.Holds(tid, []int{3}, 42)
		b := p.Holds(tid, []int{3}, 42)
		if a != b {
			t.Fatal("HashProb not deterministic")
		}
	}
}

func TestHashProbRate(t *testing.T) {
	p := HashProb{P: 0.25}
	hits := 0
	const n = 20000
	for tid := 0; tid < n; tid++ {
		if p.Holds(tid, nil, 7) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("HashProb(0.25) rate = %.3f", rate)
	}
}

func TestHashProbExtremes(t *testing.T) {
	always, never := HashProb{P: 1.1}, HashProb{P: 0}
	for tid := 0; tid < 50; tid++ {
		if !always.Holds(tid, nil, 1) {
			t.Fatal("P>1 predicate failed")
		}
		if never.Holds(tid, nil, 1) {
			t.Fatal("P=0 predicate held")
		}
	}
}

func TestScatterBounded(t *testing.T) {
	k := &Kernel{
		Name:   "scatter",
		Launch: gpu.Linear1D(1, 64),
		Seed:   99,
		Body: []Stmt{
			Loop{Count: 8, Body: []Stmt{
				MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{Base: 0x100000, Scatter: 1 << 16, Align: 4}},
			}},
		},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tr.Threads {
		for _, a := range tt.Accesses {
			if a.Addr < 0x100000 || a.Addr >= 0x100000+1<<16 {
				t.Fatalf("scatter address %#x out of range", a.Addr)
			}
			if a.Addr%4 != 0 {
				t.Fatalf("scatter address %#x not aligned", a.Addr)
			}
		}
	}
}

func TestScatterDeterministic(t *testing.T) {
	k := &Kernel{
		Name:   "scatter",
		Launch: gpu.Linear1D(1, 32),
		Seed:   5,
		Body:   []Stmt{MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{Base: 0, Scatter: 4096}}},
	}
	a, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	for tid := range a.Threads {
		if a.Threads[tid].Accesses[0] != b.Threads[tid].Accesses[0] {
			t.Fatal("scatter not deterministic")
		}
	}
}

func TestNestedLoops(t *testing.T) {
	k := &Kernel{
		Name:   "nest",
		Launch: gpu.Linear1D(1, 32),
		Body: []Stmt{
			Loop{Count: 2, Body: []Stmt{
				Loop{Count: 3, Body: []Stmt{
					MemOp{PC: 1, Kind: trace.Load,
						Addr: AddrExpr{Base: 0, TidCoef: 0, IterCoef: []int64{1000, 10}}},
				}},
			}},
		},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	acc := tr.Threads[0].Accesses
	want := []uint64{0, 10, 20, 1000, 1010, 1020}
	if len(acc) != len(want) {
		t.Fatalf("got %d accesses", len(acc))
	}
	for i := range want {
		if acc[i].Addr != want[i] {
			t.Fatalf("addrs = %v, want %v", acc, want)
		}
	}
}

func TestNegativeAddressClamped(t *testing.T) {
	k := &Kernel{
		Name:   "neg",
		Launch: gpu.Linear1D(1, 32),
		Body:   []Stmt{MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{Base: 100, TidCoef: -64}}},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tr.Threads {
		if tt.Accesses[0].Addr > 1<<40 {
			t.Fatalf("negative address wrapped: %#x", tt.Accesses[0].Addr)
		}
	}
}

func TestWrapWindow(t *testing.T) {
	k := &Kernel{
		Name:   "wrap",
		Launch: gpu.Linear1D(1, 32),
		Body: []Stmt{
			Loop{Count: 10, Body: []Stmt{
				MemOp{PC: 1, Kind: trace.Load,
					Addr: AddrExpr{Base: 0x1000, IterCoef: []int64{4}, Wrap: 16}},
			}},
		},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	acc := tr.Threads[0].Accesses
	// Offsets cycle 0,4,8,12,0,4,8,12,...
	for j, a := range acc {
		want := uint64(0x1000 + (j%4)*4)
		if a.Addr != want {
			t.Fatalf("wrap access %d = %#x, want %#x", j, a.Addr, want)
		}
	}
}

func TestWrapNegativeOffset(t *testing.T) {
	k := &Kernel{
		Name:   "wrapneg",
		Launch: gpu.Linear1D(1, 32),
		Body: []Stmt{
			MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{Base: 0x1000, Const: -4, Wrap: 16}},
		},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Threads[0].Accesses[0].Addr; got != 0x1000+12 {
		t.Errorf("negative wrapped offset = %#x, want %#x", got, 0x1000+12)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []*Kernel{
		{Name: "dup", Launch: gpu.Linear1D(1, 32), Body: []Stmt{
			MemOp{PC: 1, Addr: AddrExpr{}},
			MemOp{PC: 1, Addr: AddrExpr{}},
		}},
		{Name: "badloop", Launch: gpu.Linear1D(1, 32), Body: []Stmt{
			Loop{Count: 0, Body: []Stmt{MemOp{PC: 1}}},
		}},
		{Name: "empty", Launch: gpu.Linear1D(1, 32), Body: nil},
		{Name: "badlaunch", Launch: gpu.Linear1D(0, 32), Body: []Stmt{MemOp{PC: 1}}},
	}
	for _, k := range cases {
		if err := k.Validate(); err == nil {
			t.Errorf("kernel %q accepted", k.Name)
		}
		if _, err := k.Emulate(); err == nil {
			t.Errorf("kernel %q emulated", k.Name)
		}
	}
}

func TestStaticPCs(t *testing.T) {
	k := &Kernel{
		Name:   "pcs",
		Launch: gpu.Linear1D(1, 32),
		Body: []Stmt{
			MemOp{PC: 1},
			Loop{Count: 2, Body: []Stmt{MemOp{PC: 2}}},
			If{Pred: TidLess{N: 1}, Then: []Stmt{MemOp{PC: 3}}, Else: []Stmt{MemOp{PC: 4}}},
		},
	}
	pcs := k.StaticPCs()
	want := []uint64{1, 2, 3, 4}
	if len(pcs) != len(want) {
		t.Fatalf("StaticPCs = %v", pcs)
	}
	for i := range want {
		if pcs[i] != want[i] {
			t.Fatalf("StaticPCs = %v, want %v", pcs, want)
		}
	}
}

func TestEmulateDeterministicProperty(t *testing.T) {
	f := func(seed uint64, tpb uint8) bool {
		k := vecAdd(1, int(tpb%64)+32, 2)
		k.Seed = seed
		a, err1 := k.Emulate()
		b, err2 := k.Emulate()
		if err1 != nil || err2 != nil {
			return false
		}
		if a.NumAccesses() != b.NumAccesses() {
			return false
		}
		for i := range a.Threads {
			for j := range a.Threads[i].Accesses {
				if a.Threads[i].Accesses[j] != b.Threads[i].Accesses[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBarrierEmission(t *testing.T) {
	k := &Kernel{
		Name:   "bar",
		Launch: gpu.Linear1D(1, 64),
		Body: []Stmt{
			MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{Base: 0x1000, TidCoef: 4}},
			Barrier{PC: 2},
			MemOp{PC: 3, Kind: trace.Store, Addr: AddrExpr{Base: 0x2000, TidCoef: 4}},
		},
	}
	tr, err := k.Emulate()
	if err != nil {
		t.Fatal(err)
	}
	for tid, tt := range tr.Threads {
		if len(tt.Accesses) != 3 {
			t.Fatalf("thread %d has %d accesses", tid, len(tt.Accesses))
		}
		bar := tt.Accesses[1]
		if bar.Kind != trace.Sync || bar.PC != 2 || bar.Addr != 0 {
			t.Fatalf("thread %d barrier access = %+v", tid, bar)
		}
	}
	pcs := k.StaticPCs()
	if len(pcs) != 3 || pcs[1] != 2 {
		t.Errorf("StaticPCs = %v, barrier missing", pcs)
	}
}

func TestBarrierDuplicatePCRejected(t *testing.T) {
	k := &Kernel{
		Name:   "dupbar",
		Launch: gpu.Linear1D(1, 32),
		Body: []Stmt{
			MemOp{PC: 1, Kind: trace.Load, Addr: AddrExpr{}},
			Barrier{PC: 1},
		},
	}
	if err := k.Validate(); err == nil {
		t.Error("barrier PC colliding with memop accepted")
	}
}
