package gpu

import (
	"github.com/uteda/gmap/internal/trace"
)

// Coalescer merges the per-thread references of a warp into cacheline
// transactions, following the compute-capability-2.x rules of CUDA C
// Programming Guide §G.4.2: the references of all active threads executing
// one memory instruction are serviced with one transaction per distinct
// 128-byte aligned segment they touch. Highly coalesced instructions (all
// 32 threads in one line) therefore cost one transaction; fully scattered
// ones cost up to 32.
type Coalescer struct {
	// LineSize is the transaction granularity in bytes; it must be a power
	// of two. The Fermi default is 128.
	LineSize uint64

	// obs, when set by AttachObs, tallies transactions per warp request.
	// Shared by value copies so BuildWarpTraces sees Coalesce's counts.
	obs *coalesceObs
}

// NewCoalescer returns a coalescer with the given line size, falling back
// to DefaultLineSize when lineSize is zero.
func NewCoalescer(lineSize uint64) Coalescer {
	if lineSize == 0 {
		lineSize = DefaultLineSize
	}
	return Coalescer{LineSize: lineSize}
}

// lineOf returns addr aligned down to the coalescing granularity.
func (c Coalescer) lineOf(addr uint64) uint64 { return addr &^ (c.LineSize - 1) }

// Coalesce merges one warp-wide instruction execution into transactions.
// addrs holds the byte address referenced by each active thread (inactive
// threads are simply omitted by the caller). The returned requests are
// ordered by first touching thread, which keeps results deterministic and
// matches the hardware's lane-ordered segment service.
func (c Coalescer) Coalesce(warpID int, pc uint64, kind trace.Kind, addrs []uint64) []trace.Request {
	if len(addrs) == 0 {
		return nil
	}
	return c.appendCoalesced(nil, warpID, pc, kind, addrs)
}

// appendCoalesced is Coalesce appending the instruction's transactions
// to reqs. Warps have at most 32 lanes, so finding a lane's segment among
// the ones appended so far is a short scan.
func (c Coalescer) appendCoalesced(reqs []trace.Request, warpID int, pc uint64, kind trace.Kind, addrs []uint64) []trace.Request {
	start := len(reqs)
outer:
	for _, a := range addrs {
		line := c.lineOf(a)
		for i := start; i < len(reqs); i++ {
			if reqs[i].Addr == line {
				reqs[i].Threads++
				continue outer
			}
		}
		reqs = append(reqs, trace.Request{PC: pc, Addr: line, Kind: kind, WarpID: warpID, Threads: 1})
	}
	if c.obs != nil {
		c.obs.local.Observe(uint64(len(reqs) - start))
	}
	return reqs
}

// BuildWarpTraces converts a per-thread kernel trace into coalesced
// per-warp transaction streams, one AppendWarp per warp.
func (c Coalescer) BuildWarpTraces(k *trace.KernelTrace) []trace.WarpTrace {
	defer c.FlushObs()
	launch := FromKernelTrace(k)
	warps := make([]trace.WarpTrace, launch.NumWarps())
	var buf []trace.Request
	for w := range warps {
		warps[w].WarpID = w
		warps[w].Block = launch.BlockOfWarp(w)
		lo, hi := launch.ThreadsOfWarp(w)
		if lo >= len(k.Threads) {
			continue
		}
		if hi > len(k.Threads) {
			hi = len(k.Threads)
		}
		buf = c.AppendWarp(buf[:0], w, k.Threads[lo:hi])
		warps[w].Requests = Exact(buf)
	}
	return warps
}

// AppendWarp coalesces one warp and appends its transaction stream to
// reqs: lanes holds the reference streams of the warp's threads, lane 0
// first, at most WarpSize of them. Threads of a warp advance in lockstep:
// at each step the coalescer groups the next pending access of every
// active thread that is executing the same static instruction (SIMT
// serializes divergent subsets, lowest-lane PC first) into transactions.
// The result is ordered exactly as a Fermi SM would issue it.
func (c Coalescer) AppendWarp(reqs []trace.Request, warpID int, lanes []trace.ThreadTrace) []trace.Request {
	var cursors [WarpSize]int
	var addrs [WarpSize]uint64
	for {
		// Find the leader: the lowest lane that still has pending
		// accesses. Its PC defines the next SIMT-issued instruction
		// subset.
		leader := -1
		for i := range lanes {
			if cursors[i] < len(lanes[i].Accesses) {
				leader = i
				break
			}
		}
		if leader < 0 {
			return reqs
		}
		lead := lanes[leader].Accesses[cursors[leader]]
		n := 0
		for i := leader; i < len(lanes); i++ {
			cur := cursors[i]
			accs := lanes[i].Accesses
			if cur < len(accs) && accs[cur].PC == lead.PC && accs[cur].Kind == lead.Kind {
				addrs[n] = accs[cur].Addr
				n++
				cursors[i]++
			}
		}
		reqs = c.appendCoalesced(reqs, warpID, lead.PC, lead.Kind, addrs[:n])
	}
}

// Exact returns a copy of reqs sized to its length, or nil when it is
// empty, so a warp built in a reused buffer holds no slack.
func Exact(reqs []trace.Request) []trace.Request {
	if len(reqs) == 0 {
		return nil
	}
	return append(make([]trace.Request, 0, len(reqs)), reqs...)
}
