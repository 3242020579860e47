// Package synth implements G-MAP's clone-generation phase (Algorithms 1
// and 2 of the paper): it expands a statistical profile back into
// synthetic, coalesced warp-level memory request streams that mimic the
// original application's locality, parallelism and footprint — without
// containing any of its original addresses when obfuscation is enabled.
//
// Generation works at warp granularity, matching the profiler: coalescing
// was applied before locality analysis, so each π-profile entry produces
// one cacheline transaction. The generated warp streams plug into the same
// memory-hierarchy simulator as coalesced original traces, which is what
// makes original-versus-proxy comparisons meaningful.
package synth

import (
	"fmt"

	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/rng"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
)

// Options controls proxy generation.
type Options struct {
	// Seed drives all sampling; the same profile, options and seed always
	// produce the identical proxy.
	Seed uint64
	// ScaleFactor is the miniaturization factor (§4.6): the proxy carries
	// roughly 1/ScaleFactor of the original's requests. 1 means same
	// size; the paper generates proxies at ~4-5x. Values in (0, 1) scale
	// the workload UP instead (§1: modeling futuristic workloads with
	// larger footprints and more threads): 0.25 produces a proxy with
	// ~4x the requests, extending each π path and growing the warp
	// population and its anchor span proportionally.
	ScaleFactor float64
	// Obfuscate replaces every instruction's base address with a
	// deterministic pseudo-random value (derived from ObfuscationKey),
	// hiding the original address space while preserving strides and
	// reuse — the proprietary-sharing mode motivated in §1 and §4.2.
	Obfuscate bool
	// ObfuscationKey selects the obfuscated layout.
	ObfuscationKey uint64
	// Ablation selectively disables generation mechanisms for the
	// ablation study (DESIGN.md §5); all-false is the full generator.
	Ablation Ablation
	// Obs, when non-nil, times clone generation under the
	// "synth.generate" phase (pprof label + duration histogram). Purely
	// observational; the generated proxy is identical.
	Obs *obs.Registry
	// TraceSpan, when non-nil, records generation as a "synth.generate"
	// child span of the given span. Write-only, like Obs.
	TraceSpan *obstrace.Span
}

// Ablation switches off individual clone-generation mechanisms so their
// contribution to accuracy can be measured. Disabling everything leaves
// the literal Algorithm 1 of the paper: iid stride/reuse sampling with no
// footprint confinement, no run structure and no cross-warp templates.
type Ablation struct {
	// NoWindows removes footprint and anchor confinement: stride walks
	// become unbounded random walks.
	NoWindows bool
	// NoTemplates disables per-cluster offset templates: every warp is
	// sampled independently even for warp-invariant instructions.
	NoTemplates bool
	// NoRunLengths disables run-length replay: strides are drawn iid.
	NoRunLengths bool
	// NoReuse disables the reuse-replay path: irregular instructions use
	// stride sampling only.
	NoReuse bool
}

// DefaultOptions mirrors the paper's evaluation settings: scaling factor
// ~4, no obfuscation.
func DefaultOptions() Options {
	return Options{Seed: 1, ScaleFactor: 4}
}

// Proxy is a generated clone: synthetic warp-level request streams plus
// the preserved launch geometry.
type Proxy struct {
	Name     string
	GridDim  int
	BlockDim int
	// Warps holds one generated stream per warp, with Block set for
	// TB-to-core assignment.
	Warps []trace.WarpTrace
	// Requests is the total generated request count (J in Algorithm 2).
	Requests int
}

// instSamplers holds the per-instruction samplers of one generation run.
type instSamplers struct {
	inter        *stats.Sampler // P_E
	intra        *stats.Sampler // P_A
	intraSupport *stats.Histogram
	// runTable is the instruction's run-length table, and runs the
	// samplers built from it so far. A run length for a chosen stride
	// preserves the original's fixed-length inner sweeps (see
	// profiler.StaticInst.Runs).
	runTable map[int64]*stats.Histogram
	runs     map[int64]*stats.Sampler
}

// runSampler returns the run-length sampler of stride, or nil when the
// table has no runs of it. It builds each sampler on first use: a clone
// draws from few of the strides a large profile holds, and building a
// sampler draws nothing from the RNG.
func (s *instSamplers) runSampler(stride int64) *stats.Sampler {
	ls, ok := s.runs[stride]
	if !ok {
		h := s.runTable[stride]
		if h == nil {
			return nil
		}
		ls = stats.NewSampler(h)
		if s.runs == nil {
			s.runs = make(map[int64]*stats.Sampler)
		}
		s.runs[stride] = ls
	}
	return ls
}

// Generate runs Algorithm 2: it assigns a π profile to every warp of the
// (geometry-preserving) proxy, generates each warp's trace with Algorithm
// 1, and returns the coalesced warp streams ready for scheduling onto
// cores by the memory-hierarchy simulator.
func Generate(p *profiler.Profile, opts Options) (*Proxy, error) {
	var proxy *Proxy
	var err error
	sp := opts.TraceSpan.Child("synth.generate")
	opts.Obs.Phase("synth.generate", func() {
		proxy, err = generate(p, opts)
	})
	sp.End()
	return proxy, err
}

// generate is the untimed body of Generate.
func generate(p *profiler.Profile, opts Options) (*Proxy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.ScaleFactor <= 0 {
		opts.ScaleFactor = 1
	}
	r := rng.New(opts.Seed ^ 0x6d617031)

	// Base addresses B, optionally obfuscated. B is mutated during
	// generation (Algorithm 1 line 9 chains warps' first accesses), so
	// copy it.
	bases := make([]uint64, len(p.Insts))
	for i, inst := range p.Insts {
		if opts.Obfuscate {
			// Keep proxies inside a 1TB synthetic address space, aligned
			// to the profiling line size.
			bases[i] = rng.Mix64(opts.ObfuscationKey^inst.PC) % (1 << 40) &^ (p.LineSize - 1)
		} else {
			bases[i] = inst.Base
		}
	}

	samplers := make([]instSamplers, len(p.Insts))
	for i := range p.Insts {
		samplers[i] = instSamplers{
			inter:        stats.NewSampler(p.Insts[i].InterStride),
			intra:        stats.NewSampler(p.Insts[i].IntraStride),
			intraSupport: p.Insts[i].IntraStride,
			runTable:     p.Insts[i].Runs,
		}
	}
	profileSampler, err := newProfileSampler(p)
	if err != nil {
		return nil, err
	}
	reuseSamplers := make([]*stats.Sampler, len(p.Profiles))
	for i := range p.Profiles {
		reuseSamplers[i] = stats.NewSampler(p.Profiles[i].Reuse)
	}

	// Miniaturization (§4.6): the factor is split evenly (in the
	// geometric sense) between the intra-thread statistics — each π
	// sequence is decimated by √S, and the footprint windows shrink with
	// it — and the inter-thread statistics: the warp population drops by
	// √S, whole threadblocks at a time, which keeps the per-core resident
	// warp mix (and with it the cache pressure the original exerts)
	// nearly intact. Decimating only sequences would leave mostly-cold
	// sweep prefixes; dropping only warps would idle cores.
	warpCount := p.Warps
	seqScale := 1.0
	warpScale := 1.0
	seqRepeat := 1
	if opts.ScaleFactor < 1 {
		// Scale-up: split the growth factor between longer per-warp paths
		// (the π sequence repeats, its stride walks continuing across
		// repetitions) and a larger warp population, whole blocks at a
		// time, with the anchor windows widened to let the new warps
		// chain beyond the profiled span.
		up := 1 / opts.ScaleFactor
		g := sqrt(up)
		seqRepeat = int(g + 0.5)
		if seqRepeat < 1 {
			seqRepeat = 1
		}
		warpGrow := up / float64(seqRepeat)
		warpsPerBlock := (p.BlockDim + 31) / 32
		blocks := (p.Warps + warpsPerBlock - 1) / warpsPerBlock
		growBlocks := int(float64(blocks)*warpGrow + 0.5)
		if growBlocks < blocks {
			growBlocks = blocks
		}
		warpCount = growBlocks * warpsPerBlock
	}
	if opts.ScaleFactor > 1 {
		seqScale = sqrt(opts.ScaleFactor)
		maxSeq := 0
		for _, pp := range p.Profiles {
			if len(pp.Seq) > maxSeq {
				maxSeq = len(pp.Seq)
			}
		}
		if int(seqScale) > maxSeq {
			seqScale = float64(maxSeq)
		}
		warpScale = opts.ScaleFactor / seqScale
		// Drop whole trailing threadblocks so surviving blocks keep their
		// full warp complement.
		warpsPerBlock := (p.BlockDim + 31) / 32
		blocks := (p.Warps + warpsPerBlock - 1) / warpsPerBlock
		keepBlocks := int(float64(blocks)/warpScale + 0.5)
		if keepBlocks < 1 {
			keepBlocks = 1
		}
		warpCount = keepBlocks * warpsPerBlock
		if warpCount > p.Warps {
			warpCount = p.Warps
		}
	}

	warpsPerBlock := (p.BlockDim + 31) / 32
	proxy := &Proxy{
		Name:     p.Name,
		GridDim:  p.GridDim,
		BlockDim: p.BlockDim,
		Warps:    make([]trace.WarpTrace, warpCount),
	}
	gen := &warpGen{
		profile:  p,
		bases:    bases,
		anchor0:  append([]uint64(nil), bases...),
		samplers: samplers,
		offLo:    make([]int64, len(p.Insts)),
		offHi:    make([]int64, len(p.Insts)),
		abl:      opts.Ablation,
	}
	anchorGrow := float64(warpCount) / float64(max(p.Warps, 1))
	if anchorGrow > 1 {
		for i := range p.Insts {
			gen.anchorLo = append(gen.anchorLo, int64(float64(p.Insts[i].AnchorLo)*anchorGrow))
			gen.anchorHi = append(gen.anchorHi, int64(float64(p.Insts[i].AnchorHi)*anchorGrow))
		}
	} else {
		for i := range p.Insts {
			gen.anchorLo = append(gen.anchorLo, p.Insts[i].AnchorLo)
			gen.anchorHi = append(gen.anchorHi, p.Insts[i].AnchorHi)
		}
	}
	for i := range p.Insts {
		if opts.Ablation.NoWindows {
			gen.offLo[i], gen.offHi[i] = 0, 0
			continue
		}
		if seqRepeat > 1 {
			// Scale-up: a repeated path sweeps proportionally farther.
			gen.offLo[i] = p.Insts[i].OffLo * int64(seqRepeat)
			gen.offHi[i] = p.Insts[i].OffHi * int64(seqRepeat)
			continue
		}
		// Footprint windows stay unscaled under miniaturization: they
		// bound each warp's *instantaneous* working set, and preserving
		// that is what keeps the composition of the L1 miss stream (cold
		// versus capacity revisits) — and therefore L2 behaviour —
		// faithful. The request-count reduction alone shrinks the traced
		// footprint.
		gen.offLo[i], gen.offHi[i] = p.Insts[i].OffLo, p.Insts[i].OffHi
	}
	// Per-cluster state: the decimated sequence and the offset template
	// produced by the cluster's first generated warp. Warp-invariant
	// (Deterministic) instructions replay the template so that warps stay
	// phase-aligned the way lockstep SIMT execution aligns them in the
	// original; irregular instructions are resampled per warp.
	states := make([]*clusterState, len(p.Profiles))
	for w := 0; w < warpCount; w++ {
		pi := int(profileSampler.Sample(r)) // Algorithm 2 line 5
		wt := &proxy.Warps[w]
		wt.WarpID = w
		wt.Block = w / warpsPerBlock
		isSync := func(k int) bool { return p.Insts[k].Kind == trace.Sync }
		st := states[pi]
		switch {
		case st == nil:
			st = &clusterState{seq: repeatSeq(sampleSeq(p.Profiles[pi].Seq, seqScale, isSync, r), seqRepeat)}
			wt.Requests = gen.generateRef(st, reuseSamplers[pi], r) // Algorithm 1
			states[pi] = st
		case opts.Ablation.NoTemplates:
			// Re-run the reference algorithm independently per warp.
			tmp := &clusterState{seq: st.seq}
			wt.Requests = gen.generateRef(tmp, reuseSamplers[pi], r)
		default:
			wt.Requests = gen.generateMember(st, reuseSamplers[pi], r)
		}
		for i := range wt.Requests {
			wt.Requests[i].WarpID = w
		}
		proxy.Requests += len(wt.Requests)
	}
	return proxy, nil
}

// clusterState carries one π cluster's decimated sequence and the offset
// template (per position, relative to the warp's first access of that
// position's instruction) recorded from the cluster's reference warp.
type clusterState struct {
	seq  []int
	tmpl []int64
}

// repeatSeq concatenates n copies of seq (scale-up: the per-warp path
// continues through further sweeps, the stride walks extending naturally).
func repeatSeq(seq []int, n int) []int {
	if n <= 1 {
		return seq
	}
	out := make([]int, 0, len(seq)*n)
	for i := 0; i < n; i++ {
		out = append(out, seq...)
	}
	return out
}

// max returns the larger of two ints.
func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sqrt is Newton's method for the miniaturization split; the stdlib math
// package would do, but the dependency is not otherwise needed here.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 32; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// sampleSeq decimates a π sequence by the miniaturization factor. Entries
// are kept with probability 1/factor across the whole path, so the
// instruction mix and the relative weight of every execution phase are
// preserved — a prefix cut would instead drop entire trailing phases
// (e.g. a kernel's second loop) and with them their locality behaviour.
// At least one entry is always kept, and barrier entries are never
// dropped — synchronization structure survives any miniaturization.
func sampleSeq(seq []int, factor float64, isSync func(int) bool, r *rng.Rand) []int {
	if factor <= 1 {
		return seq
	}
	keep := 1 / factor
	out := make([]int, 0, int(float64(len(seq))*keep)+1)
	kept := 0
	for _, k := range seq {
		if isSync(k) {
			out = append(out, k)
			continue
		}
		if r.Bool(keep) {
			out = append(out, k)
			kept++
		}
	}
	if kept == 0 && len(seq) > 0 {
		out = append(out, seq[0])
	}
	return out
}

// newProfileSampler builds the Q-weighted sampler over Π.
func newProfileSampler(p *profiler.Profile) (*stats.Sampler, error) {
	h := stats.NewHistogram()
	for i, pp := range p.Profiles {
		h.AddN(int64(i), pp.Count)
	}
	s := stats.NewSampler(h)
	if s == nil {
		return nil, fmt.Errorf("synth: profile %q has no warp population", p.Name)
	}
	return s, nil
}

// warpGen carries the state shared across warps during one generation
// run; bases is the rolling B of Algorithm 1 (line 9 updates it so
// consecutive warps chain their first accesses through inter-warp
// strides).
type warpGen struct {
	profile  *profiler.Profile
	bases    []uint64 // global rolling B
	anchor0  []uint64 // the proxy's own first-warp anchors (window origin)
	samplers []instSamplers
	// offLo/offHi are the per-instruction footprint windows, scaled down
	// by the miniaturization factor (§4.6 "scaling down ... intra-thread
	// statistics"): a proxy with 1/S of the requests sweeps 1/S of the
	// footprint, which preserves the cold-miss fraction and the reuse
	// structure that the caches see.
	offLo []int64
	offHi []int64
	// anchorLo/anchorHi are the inter-warp chain windows, widened
	// proportionally when the warp population is scaled up.
	anchorLo []int64
	anchorHi []int64
	abl      Ablation
}

// generateRef is Algorithm 1 for a cluster's reference warp: it emits one
// request per entry of the (possibly decimated) π sequence and records the
// offset template into st.
func (g *warpGen) generateRef(st *clusterState, reuseSampler *stats.Sampler, r *rng.Rand) []trace.Request {
	seq := st.seq
	st.tmpl = make([]int64, 0, len(seq))
	out := make([]trace.Request, 0, len(seq))
	// b' — the per-warp rolling base (Algorithm 1 line 3) — and the
	// warp's first access per instruction, the anchor of the footprint
	// window the stride walk is confined to.
	local := make(map[int]uint64, 8)
	first := make(map[int]uint64, 8)
	// history[k] records the stream indices of k's past requests so the
	// reuse path can resolve a sampled depth to a same-instruction
	// revisit (see reuseOrStride).
	history := make(map[int][]int32, 8)
	runs := make(map[int]*runState, 8)
	for _, k := range seq {
		inst := &g.profile.Insts[k]
		var addr uint64
		if _, seen := local[k]; !seen {
			// First execution of instruction k by this warp: chain off
			// the global base through an inter-warp stride sample
			// (Algorithm 1 lines 6-9), confined to the profiled anchor
			// window so the chain cycles where the original cycled
			// instead of random-walking away.
			var offset int64
			if s := g.samplers[k].inter; s != nil {
				offset = s.Sample(r)
			}
			addr = addOffset(g.bases[k], offset)
			if span := g.anchorHi[k] - g.anchorLo[k]; span > 0 && !g.abl.NoWindows {
				off := int64(addr) - int64(g.anchor0[k])
				// Wrap to the boundary opposite the overflow so chains
				// keep sweeping in their dominant direction.
				if off > g.anchorHi[k] {
					addr = addOffset(g.anchor0[k], g.anchorLo[k])
				} else if off < g.anchorLo[k] {
					addr = addOffset(g.anchor0[k], g.anchorHi[k])
				}
			}
			g.bases[k] = addr
			local[k] = addr
			first[k] = addr
		} else if inst.Deterministic {
			// Warp-invariant instructions (§4.2 regularity) are generated
			// by the stride walk alone: their temporal locality is a
			// consequence of the stride geometry (overlapping or cyclic
			// sweeps inside the footprint window), so replaying explicit
			// reuse targets would double-count it and inject revisits the
			// original never makes back-to-back.
			addr = g.strideStep(k, local, first[k], runs, r)
		} else {
			// Irregular instructions: honor a sampled reuse distance when
			// the target is plausible, otherwise extend by a sampled
			// intra-thread stride (lines 11-17). Note that only the
			// stride path advances b' (line 17) — a satisfied reuse
			// leaves the rolling base untouched, so the stream returns to
			// its frontier afterwards.
			addr = g.reuseOrStride(k, local, first[k], history[k], runs, reuseSampler, out, r)
		}
		history[k] = append(history[k], int32(len(out)))
		st.tmpl = append(st.tmpl, int64(addr)-int64(first[k]))
		out = append(out, trace.Request{
			PC:      inst.PC,
			Addr:    addr,
			Kind:    inst.Kind,
			Threads: 32,
		})
	}
	return out
}

// reuseOrStride implements lines 11-17 of Algorithm 1; it updates
// local[k] (b' in the paper) only when it takes the stride path. The
// stride walk is confined to the instruction's profiled per-warp
// footprint window anchored at first — without this, independently
// sampled strides form an unbounded random walk whose working set
// diffuses far beyond the original's (DESIGN.md §5).
func (g *warpGen) reuseOrStride(k int, local map[int]uint64, first uint64, hist []int32, runs map[int]*runState, reuseSampler *stats.Sampler, generated []trace.Request, r *rng.Rand) uint64 {
	j := len(generated)
	if g.abl.NoReuse {
		reuseSampler = nil
	}
	if reuseSampler != nil && j > 0 {
		reuseDist := reuseSampler.Sample(r)
		// The sampled distance is applied unscaled even in miniaturized
		// proxies: an LRU cache's hit/miss outcome is a function of the
		// revisit's stack distance, so preserving the P_R shape is what
		// preserves miss rates at every capacity. (Scaling distances by
		// the miniaturization factor shrinks every working set and badly
		// distorts L2 behaviour.)
		// Cold samples (-1) and distances reaching past the start of the
		// generated trace cannot be satisfied.
		if reuseDist >= 0 && int64(j-1) >= reuseDist && len(hist) > 0 {
			// Resolve the sampled depth to instruction k's own request
			// nearest to it: the profiled distance counts the whole
			// interleaved stream, but the revisit the original made at
			// that depth touched one of k's lines — snapping to the
			// nearest same-instruction entry reproduces it even when
			// index j-1-reuse itself belongs to another instruction.
			want := int32(int64(j-1) - reuseDist)
			target := generated[nearestIndex(hist, want)].Addr
			jump := int64(target) - int64(generated[j-1].Addr)
			// The paper accepts the reuse when the jump looks like a
			// valid intra-thread stride for instruction k (line 12). We
			// additionally accept targets inside k's own footprint
			// window: in multi-phase kernels the previous request often
			// belongs to a different instruction, making the raw jump
			// fall outside supp(P_A^k) even though the revisit itself is
			// exactly what the original stream does.
			off := int64(target) - int64(first)
			inWindow := g.offHi[k] > g.offLo[k] && off >= g.offLo[k] && off <= g.offHi[k]
			if jump == 0 || inWindow || g.samplers[k].intraSupport.Contains(jump) {
				return target
			}
		}
	}
	return g.strideStep(k, local, first, runs, r)
}

// runState tracks an in-progress stride run for one instruction within
// one warp.
type runState struct {
	stride int64
	left   int64
}

// strideStep advances instruction k's rolling base by a sampled
// intra-thread stride, confined to the profiled footprint window: a walk
// that leaves the window restarts at the opposite boundary, exactly as
// the original's cyclic index expressions wrap (an ascending sweep
// restarts at the bottom, a descending one at the top). A modulo fold
// would scramble the stride lattice (offsets that were multiples of the
// sweep stride stop being so), destroying the reuse structure.
//
// Strides are drawn run-wise: when a new stride is chosen, a run length is
// sampled from the instruction's run-length distribution and the stride
// repeats for that many steps (window permitting). This reproduces the
// fixed-length inner sweeps of real kernels, which iid stride draws would
// blur into geometric run lengths.
func (g *warpGen) strideStep(k int, local map[int]uint64, first uint64, runs map[int]*runState, r *rng.Rand) uint64 {
	offLo, offHi := g.offLo[k], g.offHi[k]
	span := offHi - offLo
	sampler := g.samplers[k].intra
	var addr uint64
	switch {
	case sampler == nil:
		addr = local[k]
	default:
		rs := runs[k]
		if rs == nil {
			rs = &runState{}
			runs[k] = rs
		}
		cur := int64(local[k]) - int64(first)
		admissible := func(stride int64) bool {
			if span <= 0 {
				return true
			}
			off := cur + stride
			return off >= offLo && off <= offHi
		}
		if rs.left > 0 && admissible(rs.stride) {
			rs.left--
			addr = addOffset(local[k], rs.stride)
			break
		}
		prevStride, hadRun := rs.stride, rs.left == 0 && rs.stride != 0 && !g.abl.NoRunLengths
		rs.left = 0
		// Pick a new stride, conditioned on staying inside the window
		// (the admissible strides form one contiguous key interval, so
		// the restriction is exact) and, at a run boundary, on differing
		// from the run's stride — a maximal run by definition ends with a
		// different stride. Then start the new stride's run.
		var stride int64
		var ok bool
		lo, hi := offLo-cur, offHi-cur
		if span <= 0 {
			lo, hi = -(1 << 62), 1<<62
		}
		if hadRun {
			stride, ok = sampler.SampleRangeExcluding(r, lo, hi, prevStride)
		} else {
			stride, ok = sampler.SampleRange(r, lo, hi)
		}
		if !ok {
			// Every stride leaves the window: the sweep completed;
			// restart cyclically at the opposite boundary.
			if sampler.Keys()[0] > offHi-cur {
				addr = addOffset(first, offLo)
			} else {
				addr = addOffset(first, offHi)
			}
			break
		}
		if ls := g.samplers[k].runSampler(stride); ls != nil && !g.abl.NoRunLengths {
			rs.stride = stride
			rs.left = ls.Sample(r) - 1
			if rs.left < 0 {
				rs.left = 0
			}
		}
		addr = addOffset(local[k], stride)
	}
	local[k] = addr
	return addr
}

// generateMember instantiates a non-reference warp of a cluster: it
// chains fresh first accesses through the inter-warp strides, replays the
// cluster template for warp-invariant instructions, and resamples
// irregular ones.
func (g *warpGen) generateMember(st *clusterState, reuseSampler *stats.Sampler, r *rng.Rand) []trace.Request {
	out := make([]trace.Request, 0, len(st.seq))
	local := make(map[int]uint64, 8)
	first := make(map[int]uint64, 8)
	history := make(map[int][]int32, 8)
	runs := make(map[int]*runState, 8)
	for j, k := range st.seq {
		inst := &g.profile.Insts[k]
		var addr uint64
		switch {
		case func() bool { _, seen := local[k]; return !seen }():
			var offset int64
			if s := g.samplers[k].inter; s != nil {
				offset = s.Sample(r)
			}
			addr = addOffset(g.bases[k], offset)
			if span := inst.AnchorHi - inst.AnchorLo; span > 0 && !g.abl.NoWindows {
				off := int64(addr) - int64(g.anchor0[k])
				if off > inst.AnchorHi {
					addr = addOffset(g.anchor0[k], inst.AnchorLo)
				} else if off < inst.AnchorLo {
					addr = addOffset(g.anchor0[k], inst.AnchorHi)
				}
			}
			g.bases[k] = addr
			local[k] = addr
			first[k] = addr
		case inst.Deterministic:
			addr = addOffset(first[k], st.tmpl[j])
			local[k] = addr
		default:
			addr = g.reuseOrStride(k, local, first[k], history[k], runs, reuseSampler, out, r)
		}
		history[k] = append(history[k], int32(len(out)))
		out = append(out, trace.Request{
			PC:      inst.PC,
			Addr:    addr,
			Kind:    inst.Kind,
			Threads: 32,
		})
	}
	return out
}

// nearestIndex returns the element of the sorted index slice closest to
// want.
func nearestIndex(hist []int32, want int32) int32 {
	lo, hi := 0, len(hist)
	for lo < hi {
		mid := (lo + hi) / 2
		if hist[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(hist) {
		return hist[len(hist)-1]
	}
	if lo == 0 {
		return hist[0]
	}
	if want-hist[lo-1] <= hist[lo]-want {
		return hist[lo-1]
	}
	return hist[lo]
}

// addOffset applies a signed offset to an address, clamping at zero to
// keep the synthetic space well-formed.
func addOffset(base uint64, off int64) uint64 {
	v := int64(base) + off
	if v < 0 {
		return 0
	}
	return uint64(v)
}
