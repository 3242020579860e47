// Package kernelsim is a miniature SIMT kernel emulator. It executes a
// declarative kernel description — global memory operations whose addresses
// are affine functions of the thread index and loop counters, loop nests,
// and thread-predicated branches — for every scalar thread of a launch and
// records the resulting per-thread memory reference streams.
//
// It stands in for the trace-collection front end of the paper (a heavily
// modified CUDA-sim executing real CUDA binaries): G-MAP only ever consumes
// the memory reference stream, and the emulator produces streams with
// exactly the structural properties the paper documents for GPGPU code —
// tid-linear addressing (§4.2), per-PC intra-thread strides and reuse
// (§4.3) and a small set of dominant control paths (§4.4).
package kernelsim

import (
	"fmt"

	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/rng"
	"github.com/uteda/gmap/internal/trace"
)

// AddrExpr computes the byte address of one memory operation for a given
// thread and loop context:
//
//	addr = Base + TidCoef*tid + Σ IterCoef[l]*iter[l] + Const
//
// where iter[l] is the induction variable of the l-th enclosing loop
// (outermost = 0). When Scatter is non-zero the affine address is replaced
// by a deterministic hash of (tid, iters) confined to [Base, Base+Scatter),
// aligned to Align — this models data-dependent/irregular access (the
// hotspot/bfs style patterns for which the paper reports the lowest cloning
// accuracy).
// When Wrap is non-zero the affine offset (everything except Base) is
// reduced modulo Wrap before being added to Base, confining the operation
// to a fixed-size window; this expresses cyclic access to shared tables
// (e.g. k-means cluster centers, AES S-boxes) whose revisits produce the
// high-reuse patterns of §4.3.
type AddrExpr struct {
	Base     uint64
	TidCoef  int64
	IterCoef []int64
	Const    int64
	Wrap     uint64
	Scatter  uint64
	Align    uint64
}

// eval computes the address for a thread and loop-index stack.
func (e AddrExpr) eval(tid int, iters []int, seed uint64) uint64 {
	if e.Scatter != 0 {
		h := rng.Mix64(seed ^ uint64(tid)*0x9e3779b97f4a7c15)
		for _, it := range iters {
			h = rng.Mix64(h ^ uint64(it))
		}
		align := e.Align
		if align == 0 {
			align = 4
		}
		return e.Base + (h%e.Scatter)&^(align-1)
	}
	off := e.TidCoef*int64(tid) + e.Const
	for l, it := range iters {
		if l < len(e.IterCoef) {
			off += e.IterCoef[l] * int64(it)
		}
	}
	if e.Wrap != 0 {
		off %= int64(e.Wrap)
		if off < 0 {
			off += int64(e.Wrap)
		}
	}
	addr := int64(e.Base) + off
	if addr < 0 {
		addr = 0
	}
	return uint64(addr)
}

// Stmt is one statement of a kernel body.
type Stmt interface{ isStmt() }

// MemOp is a global-memory load or store. PC identifies the static
// instruction; it must be unique within a kernel.
type MemOp struct {
	PC   uint64
	Kind trace.Kind
	Addr AddrExpr
}

func (MemOp) isStmt() {}

// Loop executes Body Count times, exposing the induction variable to
// enclosed AddrExprs as the next IterCoef level.
type Loop struct {
	Count int
	Body  []Stmt
}

func (Loop) isStmt() {}

// Barrier is a threadblock-wide bar.sync: every thread of the block must
// reach it before any proceeds. PC identifies the barrier site and must be
// unique like a memory instruction's.
type Barrier struct {
	PC uint64
}

func (Barrier) isStmt() {}

// If executes Then when Pred holds for the thread and Else otherwise,
// modeling control-flow divergence.
type If struct {
	Pred Pred
	Then []Stmt
	Else []Stmt
}

func (If) isStmt() {}

// Pred is a thread predicate.
type Pred interface {
	Holds(tid int, iters []int, seed uint64) bool
}

// TidMod holds for threads with tid % M == R.
type TidMod struct{ M, R int }

// Holds implements Pred.
func (p TidMod) Holds(tid int, _ []int, _ uint64) bool {
	return p.M > 0 && tid%p.M == p.R
}

// TidLess holds for threads with tid < N.
type TidLess struct{ N int }

// Holds implements Pred.
func (p TidLess) Holds(tid int, _ []int, _ uint64) bool { return tid < p.N }

// HashProb holds pseudo-randomly (deterministic in tid and loop indices)
// with probability P; it models data-dependent branches.
type HashProb struct{ P float64 }

// Holds implements Pred.
func (p HashProb) Holds(tid int, iters []int, seed uint64) bool {
	h := rng.Mix64(seed ^ 0xabcdef ^ uint64(tid))
	for _, it := range iters {
		h = rng.Mix64(h ^ uint64(it)*0x100000001b3)
	}
	return float64(h>>11)/(1<<53) < p.P
}

// Kernel is a complete declarative kernel: launch geometry plus body.
type Kernel struct {
	Name   string
	Launch gpu.Launch
	Body   []Stmt
	// Seed drives the deterministic scatter/hash behaviour of irregular
	// expressions and predicates.
	Seed uint64
}

// Validate checks the kernel for structural problems: degenerate launch,
// duplicate PCs, or non-positive loop counts.
func (k *Kernel) Validate() error {
	if err := k.Launch.Validate(); err != nil {
		return fmt.Errorf("kernel %q: %w", k.Name, err)
	}
	pcs := make(map[uint64]bool)
	var walk func(body []Stmt) error
	walk = func(body []Stmt) error {
		for _, s := range body {
			switch st := s.(type) {
			case MemOp:
				if pcs[st.PC] {
					return fmt.Errorf("kernel %q: duplicate PC %#x", k.Name, st.PC)
				}
				pcs[st.PC] = true
			case Barrier:
				if pcs[st.PC] {
					return fmt.Errorf("kernel %q: duplicate PC %#x", k.Name, st.PC)
				}
				pcs[st.PC] = true
			case Loop:
				if st.Count <= 0 {
					return fmt.Errorf("kernel %q: loop with count %d", k.Name, st.Count)
				}
				if err := walk(st.Body); err != nil {
					return err
				}
			case If:
				if err := walk(st.Then); err != nil {
					return err
				}
				if err := walk(st.Else); err != nil {
					return err
				}
			default:
				return fmt.Errorf("kernel %q: unknown statement %T", k.Name, s)
			}
		}
		return nil
	}
	if err := walk(k.Body); err != nil {
		return err
	}
	if len(pcs) == 0 {
		return fmt.Errorf("kernel %q: no memory operations", k.Name)
	}
	return nil
}

// StaticPCs returns the set of static memory-instruction PCs in program
// order.
func (k *Kernel) StaticPCs() []uint64 {
	var pcs []uint64
	var walk func(body []Stmt)
	walk = func(body []Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case MemOp:
				pcs = append(pcs, st.PC)
			case Barrier:
				pcs = append(pcs, st.PC)
			case Loop:
				walk(st.Body)
			case If:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(k.Body)
	return pcs
}

// Emulate runs the kernel for every thread of the launch and returns the
// per-thread reference streams, the form the file chain stores. Each
// thread runs into one reused buffer and keeps an exactly sized copy.
func (k *Kernel) Emulate() (*trace.KernelTrace, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	n := k.Launch.NumThreads()
	out := &trace.KernelTrace{
		Name:     k.Name,
		GridDim:  k.Launch.NumBlocks(),
		BlockDim: k.Launch.ThreadsPerBlock(),
		Threads:  make([]trace.ThreadTrace, n),
	}
	iters := make([]int, 0, 8)
	var buf []trace.Access
	for tid := 0; tid < n; tid++ {
		buf = k.run(k.Body, tid, iters, buf[:0])
		out.Threads[tid].ThreadID = tid
		if len(buf) > 0 {
			out.Threads[tid].Accesses = append(make([]trace.Access, 0, len(buf)), buf...)
		}
	}
	return out, nil
}

// EmulateWarps runs the kernel one warp at a time and coalesces each warp
// with c as soon as its threads have run, so no per-thread stream outlives
// its warp. The result equals c.BuildWarpTraces of Emulate's trace,
// request for request, and c's obs tallies the same transactions; they
// are flushed once, on return.
func (k *Kernel) EmulateWarps(c gpu.Coalescer) ([]trace.WarpTrace, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	defer c.FlushObs()
	launch := k.Launch
	warps := make([]trace.WarpTrace, launch.NumWarps())
	iters := make([]int, 0, 8)
	var lanes [gpu.WarpSize]trace.ThreadTrace
	var buf []trace.Request
	for w := range warps {
		lo, hi := launch.ThreadsOfWarp(w)
		for tid := lo; tid < hi; tid++ {
			lane := &lanes[tid-lo]
			lane.Accesses = k.run(k.Body, tid, iters, lane.Accesses[:0])
		}
		buf = c.AppendWarp(buf[:0], w, lanes[:hi-lo])
		warps[w] = trace.WarpTrace{WarpID: w, Block: launch.BlockOfWarp(w), Requests: gpu.Exact(buf)}
	}
	return warps, nil
}

// run executes body for one thread, appending emitted accesses to acc.
func (k *Kernel) run(body []Stmt, tid int, iters []int, acc []trace.Access) []trace.Access {
	for _, s := range body {
		switch st := s.(type) {
		case MemOp:
			acc = append(acc, trace.Access{
				PC:   st.PC,
				Addr: st.Addr.eval(tid, iters, k.Seed),
				Kind: st.Kind,
			})
		case Barrier:
			acc = append(acc, trace.Access{PC: st.PC, Kind: trace.Sync})
		case Loop:
			iters = append(iters, 0)
			for i := 0; i < st.Count; i++ {
				iters[len(iters)-1] = i
				acc = k.run(st.Body, tid, iters, acc)
			}
			iters = iters[:len(iters)-1]
		case If:
			if st.Pred.Holds(tid, iters, k.Seed) {
				acc = k.run(st.Then, tid, iters, acc)
			} else {
				acc = k.run(st.Else, tid, iters, acc)
			}
		}
	}
	return acc
}
