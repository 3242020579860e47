// Package proptest is the seeded generator library behind the
// differential and property-based test suites: random cache and DRAM
// configurations, locality-structured address streams, warp-level request
// streams, emulator kernels and statistical profiles, all drawn from a deterministic
// per-case RNG so every failure replays from its seed.
//
// It lives outside the packages it generates inputs for; differential
// tests import it from external (_test) packages to avoid import cycles.
package proptest

import (
	"os"
	"strconv"
	"testing"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/dram"
	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/kernelsim"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/rng"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
)

// EnvBudget is the environment variable the nightly CI workflow sets to
// raise the generated-case budget of every property test.
const EnvBudget = "GMAP_PROPTEST_N"

// N returns the number of generated cases a property test should run:
// def under the plain `go test` budget, short under -short, and the
// EnvBudget override (nightly long runs) when set.
func N(t testing.TB, short, def int) int {
	if s := os.Getenv(EnvBudget); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("proptest: bad %s=%q: %v", EnvBudget, s, err)
		}
		return v
	}
	if testing.Short() {
		return short
	}
	return def
}

// G is one generation stream. Every generator consumes from R, so a case
// is reproduced exactly by reconstructing G from its seed.
type G struct {
	R *rng.Rand
}

// New returns a generator seeded with seed.
func New(seed uint64) *G { return &G{R: rng.New(seed)} }

// choice returns one element of vals uniformly.
func choice[T any](g *G, vals ...T) T { return vals[g.R.Intn(len(vals))] }

// CacheConfig draws a small random LRU cache geometry (line size 32-128,
// 1-8 ways, 1-32 sets) with a random write policy. Small capacities keep
// generated streams conflict-heavy so evictions and writebacks are
// exercised, not just hits.
func (g *G) CacheConfig() cache.Config {
	lineSize := choice(g, 32, 64, 128)
	return g.CacheConfigWithLine(lineSize)
}

// CacheConfigWithLine is CacheConfig with a caller-chosen line size.
func (g *G) CacheConfigWithLine(lineSize int) cache.Config {
	ways := choice(g, 1, 2, 4, 8)
	sets := choice(g, 1, 2, 4, 8, 16, 32)
	writes := cache.WriteBackAllocate
	if g.R.Bool(0.4) {
		writes = cache.WriteThroughNoAllocate
	}
	return cache.Config{
		SizeBytes: sets * ways * lineSize,
		Ways:      ways,
		LineSize:  lineSize,
		Policy:    cache.LRU,
		Writes:    writes,
		Seed:      g.R.Uint64(),
	}
}

// DRAMConfig draws a small random memory-system geometry with short
// timings so generated streams cross refresh windows and row conflicts
// within a few thousand cycles.
func (g *G) DRAMConfig() dram.Config {
	cfg := dram.Config{
		Channels:        choice(g, 1, 2, 4),
		RanksPerChannel: choice(g, 1, 2),
		BanksPerRank:    choice(g, 2, 4, 8),
		RowBytes:        choice(g, 512, 1024, 2048),
		TxBytes:         choice(g, 64, 128),
		BusBytes:        choice(g, 4, 8, 16),
		TRCD:            2 + g.R.Intn(15),
		TCAS:            2 + g.R.Intn(15),
		TRP:             2 + g.R.Intn(15),
		TRAS:            10 + g.R.Intn(30),
		Sched:           dram.FCFS,
	}
	if g.R.Bool(0.5) {
		cfg.Mapping = dram.ChRaBaRoCo
	}
	if g.R.Bool(0.7) {
		cfg.TREFI = 200 + g.R.Intn(2000)
		cfg.TRFC = 10 + g.R.Intn(100)
	}
	return cfg
}

// AddrStream generates n byte addresses with GPU-like structure: strided
// runs, revisits of earlier addresses (temporal locality) and occasional
// jumps to fresh regions. Addresses start far from zero so negative
// strides never underflow.
func (g *G) AddrStream(n int, lineSize uint64) []uint64 {
	if lineSize == 0 {
		lineSize = 128
	}
	strides := []int64{
		int64(lineSize), -int64(lineSize),
		4 * int64(lineSize), -2 * int64(lineSize),
		int64(lineSize) / 2, 8,
	}
	base := uint64(1)<<30 + uint64(g.R.Intn(1<<20))*lineSize
	addr := base
	out := make([]uint64, 0, n)
	out = append(out, addr)
	for len(out) < n {
		switch p := g.R.Float64(); {
		case p < 0.55:
			stride := choice(g, strides...)
			run := 1 + g.R.Intn(8)
			for i := 0; i < run && len(out) < n; i++ {
				addr += uint64(stride)
				out = append(out, addr)
			}
		case p < 0.80:
			addr = out[g.R.Intn(len(out))]
			out = append(out, addr)
		default:
			addr = base + uint64(g.R.Intn(1<<16))*lineSize + uint64(g.R.Intn(int(lineSize)))
			out = append(out, addr)
		}
	}
	return out
}

// Lines generates a stream of n element identifiers drawn from a pool of
// at most distinct values, mixing fresh elements, recent revisits and
// uniform revisits — the shapes that exercise every stack-distance path.
func (g *G) Lines(n, distinct int) []uint64 {
	if distinct < 1 {
		distinct = 1
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(g.R.Intn(distinct)) * 64
	}
	return out
}

// MonotoneArrivals generates n nondecreasing arrival cycles with gaps up
// to maxGap (occasionally zero, so simultaneous arrivals are covered).
func (g *G) MonotoneArrivals(n int, maxGap uint64) []uint64 {
	out := make([]uint64, n)
	var t uint64
	for i := range out {
		if !g.R.Bool(0.2) {
			t += g.R.Uint64n(maxGap + 1)
		}
		out[i] = t
	}
	return out
}

// WarpAddrs generates the per-lane addresses of one warp instruction:
// up to 32 lanes mixing contiguous, strided, scattered and duplicate
// addresses, the full space of coalescing outcomes.
func (g *G) WarpAddrs() []uint64 {
	lanes := 1 + g.R.Intn(32)
	base := uint64(1)<<20 + uint64(g.R.Intn(1<<16))*4
	out := make([]uint64, lanes)
	switch g.R.Intn(4) {
	case 0: // fully coalesced: consecutive words
		for i := range out {
			out[i] = base + uint64(i)*4
		}
	case 1: // strided
		stride := uint64(choice(g, 8, 32, 128, 256, 1024))
		for i := range out {
			out[i] = base + uint64(i)*stride
		}
	case 2: // all lanes on one address (broadcast)
		for i := range out {
			out[i] = base
		}
	default: // scattered with duplicates
		for i := range out {
			out[i] = base + uint64(g.R.Intn(1<<14))
		}
	}
	return out
}

// Requests generates a single-warp request stream over structured
// addresses: loads, stores, and (with probability syncProb per slot) a
// threadblock barrier.
func (g *G) Requests(n int, syncProb float64) []trace.Request {
	addrs := g.AddrStream(n, 128)
	pcs := []uint64{0x400, 0x408, 0x410, 0x418}
	out := make([]trace.Request, n)
	for i := range out {
		kind := trace.Load
		if g.R.Bool(syncProb) {
			kind = trace.Sync
		} else if g.R.Bool(0.3) {
			kind = trace.Store
		}
		out[i] = trace.Request{
			PC:      choice(g, pcs...),
			Addr:    addrs[i],
			Kind:    kind,
			WarpID:  0,
			Threads: 1 + g.R.Intn(32),
		}
	}
	return out
}

// WarpSet generates a multi-warp, multi-block workload for whole-machine
// simulator properties: 1-maxWarps warps spread over 1-4 threadblocks,
// each with its own structured request stream (and per-slot barrier
// probability syncProb). Warps in the same block share a barrier scope,
// so generated streams exercise block residency, barrier reconvergence
// and cross-core scheduling, not just one warp's request order.
func (g *G) WarpSet(maxWarps int, syncProb float64) []trace.WarpTrace {
	if maxWarps < 1 {
		maxWarps = 1
	}
	nWarps := 1 + g.R.Intn(maxWarps)
	nBlocks := 1 + g.R.Intn(4)
	if nBlocks > nWarps {
		nBlocks = nWarps
	}
	warps := make([]trace.WarpTrace, nWarps)
	for w := range warps {
		reqs := g.Requests(10+g.R.Intn(60), syncProb)
		for i := range reqs {
			reqs[i].WarpID = w
		}
		warps[w] = trace.WarpTrace{
			WarpID:   w,
			Block:    w % nBlocks,
			Requests: reqs,
		}
	}
	// A barrier joins every warp of its block: each block's warps must
	// agree on their barrier count or the block deadlocks. Trim every
	// block to its minimum.
	syncCount := func(reqs []trace.Request) int {
		n := 0
		for _, r := range reqs {
			if r.Kind == trace.Sync {
				n++
			}
		}
		return n
	}
	minSyncs := make([]int, nBlocks)
	for i := range minSyncs {
		minSyncs[i] = -1
	}
	for w := range warps {
		n := syncCount(warps[w].Requests)
		b := warps[w].Block
		if minSyncs[b] < 0 || n < minSyncs[b] {
			minSyncs[b] = n
		}
	}
	for w := range warps {
		keep := minSyncs[warps[w].Block]
		out := warps[w].Requests[:0]
		seen := 0
		for _, r := range warps[w].Requests {
			if r.Kind == trace.Sync {
				if seen >= keep {
					continue // drop the excess barrier, keep the slot empty
				}
				seen++
			}
			out = append(out, r)
		}
		warps[w].Requests = out
	}
	return warps
}

// histogram builds a histogram over the given keys with random positive
// counts.
func (g *G) histogram(keys ...int64) *stats.Histogram {
	h := stats.NewHistogram()
	for _, k := range keys {
		h.AddN(k, uint64(1+g.R.Intn(50)))
	}
	return h
}

// Profile generates a random, structurally valid statistical profile:
// 1-4 static instructions with stride distributions, windows and optional
// run-length structure, and 1-3 π profiles with reuse histograms. Every
// returned profile passes Validate; the synthesizer must accept it (or
// reject it with an error) without panicking.
func (g *G) Profile() *profiler.Profile {
	const lineSize = 128
	nInsts := 1 + g.R.Intn(4)
	insts := make([]profiler.StaticInst, nInsts)
	var totalReqs uint64
	strideKeys := []int64{0, lineSize, -lineSize, 2 * lineSize, 4096}
	for i := range insts {
		kind := trace.Load
		if g.R.Bool(0.3) {
			kind = trace.Store
		}
		count := uint64(20 + g.R.Intn(400))
		totalReqs += count
		inst := profiler.StaticInst{
			PC:            0x400 + uint64(i)*8,
			Kind:          kind,
			Base:          uint64(g.R.Intn(1<<20)) * lineSize,
			InterStride:   g.histogram(strideKeys[:1+g.R.Intn(len(strideKeys))]...),
			IntraStride:   g.histogram(strideKeys[:1+g.R.Intn(len(strideKeys))]...),
			Count:         count,
			OffHi:         int64(g.R.Intn(1 << 16)),
			OffLo:         -int64(g.R.Intn(1 << 12)),
			AnchorHi:      int64(g.R.Intn(1 << 18)),
			AnchorLo:      -int64(g.R.Intn(1 << 12)),
			Deterministic: g.R.Bool(0.5),
		}
		if g.R.Bool(0.4) {
			inst.Runs = map[int64]*stats.Histogram{
				choice(g, strideKeys...): g.histogram(1, 2, 4, 8),
			}
		}
		insts[i] = inst
	}
	nProfiles := 1 + g.R.Intn(3)
	profiles := make([]profiler.PiProfile, nProfiles)
	for i := range profiles {
		seqLen := 1 + g.R.Intn(6)
		seq := make([]int, seqLen)
		for j := range seq {
			seq[j] = g.R.Intn(nInsts)
		}
		reuse := g.histogram(-1, 0, int64(1+g.R.Intn(8)), int64(16+g.R.Intn(256)))
		profiles[i] = profiler.PiProfile{
			Seq:   seq,
			Count: uint64(1 + g.R.Intn(50)),
			Reuse: reuse,
		}
	}
	blockDim := choice(g, 32, 64, 128)
	gridDim := 1 + g.R.Intn(4)
	warpsPerBlock := (blockDim + 31) / 32
	return &profiler.Profile{
		Name:          "proptest",
		GridDim:       gridDim,
		BlockDim:      blockDim,
		LineSize:      lineSize,
		Warps:         gridDim * warpsPerBlock,
		TotalRequests: totalReqs,
		Insts:         insts,
		Profiles:      profiles,
		SchedPself:    float64(g.R.Intn(10)) / 10,
	}
}

// kernelGen carries the state of one Kernel draw: the next free PC and
// the launch's thread count, which TidLess predicates split.
type kernelGen struct {
	g       *G
	pc      uint64
	threads int
}

// Kernel generates a small random kernel of every statement kind the
// emulator runs: loops nested up to three deep, branches on all three
// predicate kinds with barriers inside them, and affine, wrapped and
// scattered addresses. Its 1-4 blocks usually hold a thread count that
// is not a multiple of 32, so the final warp of a block is partial.
// Every returned kernel passes Validate.
func (g *G) Kernel() *kernelsim.Kernel {
	blocks := 1 + g.R.Intn(4)
	tpb := choice(g, 1, 17, 32, 48, 96, 100, 1+g.R.Intn(160))
	kg := &kernelGen{g: g, pc: 0x400, threads: blocks * tpb}
	body := kg.stmts(0, 0, 2+g.R.Intn(3))
	body = append(body, kg.memOp(0))
	return &kernelsim.Kernel{
		Name:   "gen",
		Launch: gpu.Linear1D(blocks, tpb),
		Body:   body,
		Seed:   g.R.Uint64(),
	}
}

// nextPC returns a fresh static instruction address.
func (kg *kernelGen) nextPC() uint64 {
	kg.pc += 8
	return kg.pc
}

// stmts draws n statements at a nesting depth, inside loops enclosing
// loops.
func (kg *kernelGen) stmts(depth, loops, n int) []kernelsim.Stmt {
	g := kg.g
	out := make([]kernelsim.Stmt, 0, n)
	for i := 0; i < n; i++ {
		switch p := g.R.Float64(); {
		case p < 0.45 || depth >= 3:
			out = append(out, kg.memOp(loops))
		case p < 0.65:
			out = append(out, kernelsim.Loop{
				Count: 1 + g.R.Intn(3),
				Body:  kg.stmts(depth+1, loops+1, 1+g.R.Intn(3)),
			})
		case p < 0.9:
			then := kg.stmts(depth+1, loops, 1+g.R.Intn(3))
			if g.R.Bool(0.5) {
				then = append([]kernelsim.Stmt{kernelsim.Barrier{PC: kg.nextPC()}}, then...)
			}
			out = append(out, kernelsim.If{
				Pred: kg.pred(),
				Then: then,
				Else: kg.stmts(depth+1, loops, g.R.Intn(3)),
			})
		default:
			out = append(out, kernelsim.Barrier{PC: kg.nextPC()})
		}
	}
	return out
}

// pred draws a thread predicate of one of the three kinds.
func (kg *kernelGen) pred() kernelsim.Pred {
	g := kg.g
	switch g.R.Intn(3) {
	case 0:
		m := 1 + g.R.Intn(5)
		return kernelsim.TidMod{M: m, R: g.R.Intn(m)}
	case 1:
		return kernelsim.TidLess{N: g.R.Intn(kg.threads + 1)}
	default:
		return kernelsim.HashProb{P: g.R.Float64()}
	}
}

// memOp draws a load or store whose address is affine in the thread id
// and the enclosing loops' counters, wrapped into a window, or scattered.
func (kg *kernelGen) memOp(loops int) kernelsim.MemOp {
	g := kg.g
	kind := trace.Load
	if g.R.Bool(0.3) {
		kind = trace.Store
	}
	addr := kernelsim.AddrExpr{
		Base:    uint64(1+g.R.Intn(8)) << 20,
		TidCoef: choice[int64](g, 0, 4, 8, 128, -4),
		Const:   int64(g.R.Intn(256)),
	}
	for l := 0; l < loops; l++ {
		addr.IterCoef = append(addr.IterCoef, choice[int64](g, 0, 4, 128, 4096, -256))
	}
	switch p := g.R.Float64(); {
	case p < 0.2:
		addr.Wrap = choice[uint64](g, 256, 1024, 4096)
	case p < 0.4:
		addr.Scatter = choice[uint64](g, 4096, 1<<16)
		addr.Align = choice[uint64](g, 0, 4, 8, 128)
	}
	return kernelsim.MemOp{PC: kg.nextPC(), Kind: kind, Addr: addr}
}
