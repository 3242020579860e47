// Package gpu models the pieces of the GPU execution model that G-MAP
// depends on: launch geometry and thread linearization, the Fermi-style
// grouping of threads into warps and threadblocks (CUDA C Programming
// Guide §G.1), and the per-warp memory coalescer (§G.4.2). Threadblock
// residency and their round-robin assignment to streaming
// multiprocessors are the simulator's (internal/memsim).
package gpu

import (
	"fmt"

	"github.com/uteda/gmap/internal/trace"
)

// WarpSize is the number of scalar threads per warp on all architectures
// G-MAP targets (Fermi and later).
const WarpSize = 32

// DefaultLineSize is the cacheline size, in bytes, of the Fermi memory
// hierarchy; coalescing operates at this granularity.
const DefaultLineSize = 128

// Dim3 is a CUDA launch dimension.
type Dim3 struct {
	X, Y, Z int
}

// Count returns the total element count X*Y*Z. Unset (zero) Y and Z count
// as 1, matching CUDA's defaulting; a zero X makes the dimension
// degenerate and counts as 0.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// String renders the dimension as "(x,y,z)".
func (d Dim3) String() string { return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z) }

// Launch describes one kernel launch.
type Launch struct {
	Grid  Dim3
	Block Dim3
}

// NumBlocks returns the number of threadblocks in the grid.
func (l Launch) NumBlocks() int { return l.Grid.Count() }

// ThreadsPerBlock returns the number of threads in one threadblock.
func (l Launch) ThreadsPerBlock() int { return l.Block.Count() }

// NumThreads returns the total number of scalar threads in the launch.
func (l Launch) NumThreads() int { return l.NumBlocks() * l.ThreadsPerBlock() }

// WarpsPerBlock returns the number of warps in one threadblock; a partial
// final warp still occupies a full warp slot (§G.1).
func (l Launch) WarpsPerBlock() int {
	return (l.ThreadsPerBlock() + WarpSize - 1) / WarpSize
}

// NumWarps returns the total warp count of the launch.
func (l Launch) NumWarps() int { return l.NumBlocks() * l.WarpsPerBlock() }

// LinearThreadID converts a (block, thread-in-block) pair of 3-D
// coordinates into the global linear thread index used throughout G-MAP.
// Linearization follows §G.1: within a block, x varies fastest
// (tid = x + y*Dx + z*Dx*Dy), and blocks linearize the same way.
func (l Launch) LinearThreadID(block, thread Dim3) int {
	bx, by := l.Grid.X, l.Grid.Y
	if bx == 0 {
		bx = 1
	}
	if by == 0 {
		by = 1
	}
	dx, dy := l.Block.X, l.Block.Y
	if dx == 0 {
		dx = 1
	}
	if dy == 0 {
		dy = 1
	}
	blockLinear := block.X + block.Y*bx + block.Z*bx*by
	threadLinear := thread.X + thread.Y*dx + thread.Z*dx*dy
	return blockLinear*l.ThreadsPerBlock() + threadLinear
}

// BlockOf returns the threadblock index of a global linear thread id.
func (l Launch) BlockOf(tid int) int { return tid / l.ThreadsPerBlock() }

// WarpOf returns the global warp index of a global linear thread id.
// Threads are packed into warps in linear-id order within their block
// (§G.1), so warps never span blocks even when the block size is not a
// multiple of WarpSize.
func (l Launch) WarpOf(tid int) int {
	block := l.BlockOf(tid)
	inBlock := tid % l.ThreadsPerBlock()
	return block*l.WarpsPerBlock() + inBlock/WarpSize
}

// LaneOf returns the lane (position within its warp) of a thread.
func (l Launch) LaneOf(tid int) int {
	return (tid % l.ThreadsPerBlock()) % WarpSize
}

// BlockOfWarp returns the threadblock index owning a global warp id.
func (l Launch) BlockOfWarp(warp int) int { return warp / l.WarpsPerBlock() }

// ThreadsOfWarp returns the global thread-id range [lo, hi) covered by a
// warp; the final warp of a block may be partial.
func (l Launch) ThreadsOfWarp(warp int) (lo, hi int) {
	block := warp / l.WarpsPerBlock()
	warpInBlock := warp % l.WarpsPerBlock()
	lo = block*l.ThreadsPerBlock() + warpInBlock*WarpSize
	hi = lo + WarpSize
	if end := (block + 1) * l.ThreadsPerBlock(); hi > end {
		hi = end
	}
	return lo, hi
}

// Validate reports an error for degenerate launches.
func (l Launch) Validate() error {
	if l.NumBlocks() <= 0 || l.ThreadsPerBlock() <= 0 {
		return fmt.Errorf("gpu: degenerate launch grid=%v block=%v", l.Grid, l.Block)
	}
	if l.ThreadsPerBlock() > 1024 {
		return fmt.Errorf("gpu: block size %d exceeds the 1024-thread limit", l.ThreadsPerBlock())
	}
	return nil
}

// Linear1D is a convenience constructor for the common 1-D launch shape.
func Linear1D(blocks, threadsPerBlock int) Launch {
	return Launch{Grid: Dim3{X: blocks}, Block: Dim3{X: threadsPerBlock}}
}

// FromKernelTrace reconstructs the (linearized) launch geometry recorded in
// a kernel trace.
func FromKernelTrace(k *trace.KernelTrace) Launch {
	return Linear1D(k.GridDim, k.BlockDim)
}
