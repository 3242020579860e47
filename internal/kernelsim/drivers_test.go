// Tests of the emulator's two drivers against each other: Emulate, which
// returns every thread's reference stream, and EmulateWarps, which
// coalesces each warp as soon as its threads have run.
package kernelsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/kernelsim"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/proptest"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// checkDrivers requires EmulateWarps to equal BuildWarpTraces over
// Emulate's trace request for request, with identical coalescer obs
// tallies, and Emulate to size every thread's stream exactly.
func checkDrivers(k *kernelsim.Kernel, lineSize uint64) error {
	streamed, whole := obs.New(), obs.New()
	got, err := k.EmulateWarps(gpu.NewCoalescer(lineSize).AttachObs(streamed))
	if err != nil {
		return err
	}
	tr, err := k.Emulate()
	if err != nil {
		return err
	}
	for _, th := range tr.Threads {
		if cap(th.Accesses) != len(th.Accesses) {
			return fmt.Errorf("thread %d holds %d accesses in capacity %d", th.ThreadID, len(th.Accesses), cap(th.Accesses))
		}
	}
	want := gpu.NewCoalescer(lineSize).AttachObs(whole).BuildWarpTraces(tr)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("EmulateWarps differs from BuildWarpTraces(Emulate()) at line size %d:\n got %v\nwant %v", lineSize, got, want)
	}
	if s, w := streamed.Snapshot(), whole.Snapshot(); !reflect.DeepEqual(s, w) {
		return fmt.Errorf("obs tallies differ:\n got %+v\nwant %+v", s, w)
	}
	return nil
}

// TestEmulateWarpsMatchesBuildWarpTraces is the differential property
// over generated kernels: nested loops, all three predicate kinds,
// barriers inside branches, scatter and wrap addresses, and block sizes
// that are not multiples of 32.
func TestEmulateWarpsMatchesBuildWarpTraces(t *testing.T) {
	n := proptest.N(t, 100, 500)
	lineSizes := []uint64{32, 64, 128, 256}
	for i := 0; i < n; i++ {
		seed := uint64(0xe3a7 + i)
		g := proptest.New(seed)
		k := g.Kernel()
		lineSize := lineSizes[g.R.Intn(len(lineSizes))]
		if err := checkDrivers(k, lineSize); err != nil {
			t.Fatalf("seed %d (launch grid %v block %v): %v", seed, k.Launch.Grid, k.Launch.Block, err)
		}
	}
}

// divergent is a kernel that exercises every path through the warp
// driver: a loop whose body diverges on a hash predicate, a barrier
// inside a branch, scattered and wrapped addresses, and a TidLess branch
// that empties the tail of the launch.
func divergent(blocks, tpb int) *kernelsim.Kernel {
	return &kernelsim.Kernel{
		Name:   "divergent",
		Launch: gpu.Linear1D(blocks, tpb),
		Seed:   7,
		Body: []kernelsim.Stmt{
			kernelsim.MemOp{PC: 0x100, Kind: trace.Load, Addr: kernelsim.AddrExpr{Base: 1 << 20, TidCoef: 4}},
			kernelsim.Loop{Count: 3, Body: []kernelsim.Stmt{
				kernelsim.If{
					Pred: kernelsim.HashProb{P: 0.4},
					Then: []kernelsim.Stmt{
						kernelsim.Barrier{PC: 0x108},
						kernelsim.MemOp{PC: 0x110, Kind: trace.Load, Addr: kernelsim.AddrExpr{Base: 2 << 20, Scatter: 1 << 16, Align: 8}},
					},
					Else: []kernelsim.Stmt{
						kernelsim.MemOp{PC: 0x118, Kind: trace.Store, Addr: kernelsim.AddrExpr{Base: 3 << 20, TidCoef: 128, IterCoef: []int64{4096}, Wrap: 4096}},
					},
				},
			}},
			kernelsim.If{
				Pred: kernelsim.TidLess{N: blocks * tpb / 2},
				Then: []kernelsim.Stmt{
					kernelsim.MemOp{PC: 0x120, Kind: trace.Store, Addr: kernelsim.AddrExpr{Base: 4 << 20, TidCoef: 8}},
				},
			},
			kernelsim.If{
				Pred: kernelsim.TidMod{M: 3, R: 1},
				Then: []kernelsim.Stmt{kernelsim.Barrier{PC: 0x128}},
			},
		},
	}
}

// TestEmulateWarpsBlockSizes covers block sizes below, at, between and
// above warp multiples, where the last warp of every block is partial.
func TestEmulateWarpsBlockSizes(t *testing.T) {
	for _, tpb := range []int{1, 17, 32, 48, 96, 100} {
		if err := checkDrivers(divergent(3, tpb), gpu.DefaultLineSize); err != nil {
			t.Errorf("block size %d: %v", tpb, err)
		}
	}
}

// TestEmulateWarpsRejectsInvalidKernel checks the warp driver validates
// the kernel before it emulates anything.
func TestEmulateWarpsRejectsInvalidKernel(t *testing.T) {
	k := divergent(1, 32)
	k.Body = append(k.Body, kernelsim.MemOp{PC: 0x100})
	reg := obs.New()
	if _, err := k.EmulateWarps(gpu.NewCoalescer(0).AttachObs(reg)); err == nil {
		t.Fatal("duplicate PC accepted")
	}
	if n := reg.Histogram("coalesce.txns_per_request").Count(); n != 0 {
		t.Errorf("coalescer observed %d instructions of an invalid kernel", n)
	}
}

var (
	sinkTrace *trace.KernelTrace
	sinkWarps []trace.WarpTrace
)

// BenchmarkEmulate times the two drivers on hotspot at scale 8: threads
// builds the per-thread trace the file chain stores, warps the coalesced
// streams the pipeline profiles and simulates. Run it with -benchmem.
func BenchmarkEmulate(b *testing.B) {
	spec, ok := workloads.ByName("hotspot")
	if !ok {
		b.Fatal("hotspot missing")
	}
	k := spec.Kernel(8)
	b.Run("threads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := k.Emulate()
			if err != nil {
				b.Fatal(err)
			}
			sinkTrace = tr
		}
	})
	b.Run("warps", func(b *testing.B) {
		c := gpu.NewCoalescer(gpu.DefaultLineSize)
		for i := 0; i < b.N; i++ {
			warps, err := k.EmulateWarps(c)
			if err != nil {
				b.Fatal(err)
			}
			sinkWarps = warps
		}
	})
}
