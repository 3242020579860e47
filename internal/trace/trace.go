// Package trace defines the memory access stream model shared by every
// G-MAP component: raw per-thread accesses as emitted by a (real or
// emulated) GPU kernel, coalesced warp-level cacheline requests, and
// per-core interleaved streams ready for cache/DRAM simulation. It also
// provides compact binary and human-readable text codecs so traces and
// proxies can be stored and exchanged.
package trace

import "fmt"

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a global memory read.
	Load Kind = iota
	// Store is a global memory write.
	Store
	// Sync is a threadblock barrier (bar.sync). It generates no memory
	// traffic; schedulers hold the warp until every live warp of its
	// block reaches the same barrier. The paper's π profiles carry
	// synchronization information the same way (§4.5).
	Sync
)

// String returns "LD", "ST" or "BAR".
func (k Kind) String() string {
	switch k {
	case Store:
		return "ST"
	case Sync:
		return "BAR"
	default:
		return "LD"
	}
}

// Access is one dynamic memory reference by one thread: the static
// instruction that issued it (PC), the byte address it touched, and whether
// it was a read or a write.
type Access struct {
	PC   uint64
	Addr uint64
	Kind Kind
}

// String renders the access as "LD pc=0x900 addr=0x1000".
func (a Access) String() string {
	return fmt.Sprintf("%s pc=%#x addr=%#x", a.Kind, a.PC, a.Addr)
}

// ThreadTrace is the ordered reference stream of a single scalar thread.
type ThreadTrace struct {
	// ThreadID is the linearized global thread index within the kernel.
	ThreadID int
	Accesses []Access
}

// Request is one coalesced, cacheline-granular memory transaction issued on
// behalf of a warp. Addr is aligned to the line size used during
// coalescing.
type Request struct {
	PC     uint64
	Addr   uint64
	Kind   Kind
	WarpID int
	// Threads is the number of scalar threads whose references were merged
	// into this transaction (1..32). It is informational; the memory system
	// treats every Request as a single transaction.
	Threads int
}

// String renders the request as "LD warp=3 pc=0x900 line=0x1000 (x32)".
func (r Request) String() string {
	return fmt.Sprintf("%s warp=%d pc=%#x line=%#x (x%d)", r.Kind, r.WarpID, r.PC, r.Addr, r.Threads)
}

// WarpTrace is the ordered, already-coalesced transaction stream of one
// warp.
type WarpTrace struct {
	WarpID int
	// Block is the threadblock the warp belongs to; scheduling uses it for
	// TB-to-core assignment and TB-level barriers.
	Block    int
	Requests []Request
}

// Len returns the number of requests in the warp trace.
func (w *WarpTrace) Len() int { return len(w.Requests) }

// KernelTrace bundles everything profiling needs about one kernel
// execution: launch geometry and the per-thread access streams.
type KernelTrace struct {
	// Name identifies the kernel (benchmark name for our workloads).
	Name string
	// GridDim and BlockDim are the linearized launch dimensions. G-MAP
	// preserves both when generating proxies (§4 of the paper).
	GridDim  int
	BlockDim int
	// Threads holds one entry per scalar thread, indexed by ThreadID.
	Threads []ThreadTrace
}

// NumThreads returns the total number of scalar threads.
func (k *KernelTrace) NumThreads() int { return len(k.Threads) }

// NumAccesses returns the total dynamic access count across all threads.
func (k *KernelTrace) NumAccesses() int {
	n := 0
	for i := range k.Threads {
		n += len(k.Threads[i].Accesses)
	}
	return n
}

// Validate checks internal consistency: thread ids must match slice
// positions and geometry must cover the thread count.
func (k *KernelTrace) Validate() error {
	if k.GridDim <= 0 || k.BlockDim <= 0 {
		return fmt.Errorf("trace %q: non-positive geometry %dx%d", k.Name, k.GridDim, k.BlockDim)
	}
	if want := k.GridDim * k.BlockDim; want != len(k.Threads) {
		return fmt.Errorf("trace %q: geometry %dx%d=%d threads, have %d",
			k.Name, k.GridDim, k.BlockDim, want, len(k.Threads))
	}
	for i := range k.Threads {
		if k.Threads[i].ThreadID != i {
			return fmt.Errorf("trace %q: thread %d has id %d", k.Name, i, k.Threads[i].ThreadID)
		}
	}
	return nil
}
