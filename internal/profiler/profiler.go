package profiler

import (
	"fmt"
	"sort"

	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/reuse"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
)

// Config controls profiling.
type Config struct {
	// LineSize is the coalescing granularity in bytes (default 128).
	LineSize uint64
	// ClusterThreshold is the π-profile similarity threshold Th of §4.4;
	// two paths whose positional similarity is at least this value fall in
	// the same cluster. The paper chooses 0.9 empirically.
	ClusterThreshold float64
	// MaxProfiles caps the number of dominant π profiles kept (M). Paths
	// beyond the cap are folded into their most similar kept cluster.
	// Zero means the default of 8.
	MaxProfiles int
	// SchedPself is recorded verbatim into the profile (§4.5); it
	// describes the warp scheduler the original ran under.
	SchedPself float64
	// CompressReuse log-bins reuse distances above 64 so the profile size
	// stays bounded regardless of footprint (the paper's profiles are
	// "independent of the execution length"). Distances at cache-relevant
	// resolution (<= 64 lines) stay exact; larger ones quantize to powers
	// of two, which preserves which capacities they straddle.
	CompressReuse bool
	// Obs, when non-nil, times the profiling phases ("profile.coalesce",
	// "profile.extract", "profile.cluster") and tags them with pprof
	// labels. Purely observational; the produced Profile is identical.
	Obs *obs.Registry
	// TraceSpan, when non-nil, records the same phases as child spans of
	// the given span. Write-only, like Obs.
	TraceSpan *obstrace.Span
}

// phase runs f under both the obs phase timer and a trace span named
// name, so the two observability layers stay in lockstep.
func (c *Config) phase(name string, f func()) {
	sp := c.TraceSpan.Child(name)
	c.Obs.Phase(name, f)
	sp.End()
}

// DefaultConfig returns the paper's settings: 128B lines, Th = 0.9, up to
// 8 dominant profiles.
func DefaultConfig() Config {
	return Config{LineSize: gpu.DefaultLineSize, ClusterThreshold: 0.9, MaxProfiles: 8}
}

func (c *Config) fillDefaults() {
	if c.LineSize == 0 {
		c.LineSize = gpu.DefaultLineSize
	}
	if c.ClusterThreshold <= 0 || c.ClusterThreshold > 1 {
		c.ClusterThreshold = 0.9
	}
	if c.MaxProfiles <= 0 {
		c.MaxProfiles = 8
	}
}

// checkLineSize rejects a coalescing granularity that is not a power of
// two; the coalescer's line masks assume one. Entry points check it before
// coalescing, so a bad size fails before any work is done.
func (c *Config) checkLineSize() error {
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("profiler: line size %d not a power of two", c.LineSize)
	}
	return nil
}

// Source is one kernel launch for a profiler entry point to coalesce: its
// name, its linearized launch geometry, and Warps, which builds its
// coalesced warp streams with the coalescer it is handed. TraceSource
// coalesces a per-thread trace; a kernelsim kernel's EmulateWarps
// streams the emulator straight into the coalescer.
type Source struct {
	Name              string
	GridDim, BlockDim int
	Warps             func(gpu.Coalescer) ([]trace.WarpTrace, error)
}

// TraceSource is the Source of a per-thread kernel trace: Warps validates
// the trace and coalesces it with BuildWarpTraces.
func TraceSource(k *trace.KernelTrace) Source {
	return Source{
		Name:    k.Name,
		GridDim: k.GridDim, BlockDim: k.BlockDim,
		Warps: func(c gpu.Coalescer) ([]trace.WarpTrace, error) {
			if err := k.Validate(); err != nil {
				return nil, err
			}
			return c.BuildWarpTraces(k), nil
		},
	}
}

// warps builds src's warp streams with cfg's coalescer, under the
// "profile.coalesce" phase. cfg must have its defaults filled.
func (c *Config) warps(src Source) (warps []trace.WarpTrace, err error) {
	c.phase("profile.coalesce", func() {
		warps, err = src.Warps(gpu.NewCoalescer(c.LineSize).AttachObs(c.Obs))
	})
	return warps, err
}

// ProfileKernel profiles a per-thread kernel trace: it coalesces the trace
// into warp-level request streams and extracts the statistical profile.
// This is phase ① of Figure 2.
func ProfileKernel(k *trace.KernelTrace, cfg Config) (*Profile, error) {
	p, _, err := ProfileSource(TraceSource(k), cfg)
	return p, err
}

// ProfileSource coalesces src once and profiles its warp streams. It also
// returns the warps, so a caller that simulates the original need not
// build them a second time; profiling only reads them.
func ProfileSource(src Source, cfg Config) (*Profile, []trace.WarpTrace, error) {
	cfg.fillDefaults()
	if err := cfg.checkLineSize(); err != nil {
		return nil, nil, err
	}
	warps, err := cfg.warps(src)
	if err != nil {
		return nil, nil, err
	}
	p, err := ProfileWarps(src.Name, src.GridDim, src.BlockDim, warps, cfg)
	return p, warps, err
}

// ProfileWarps extracts a profile from already-coalesced warp streams.
func ProfileWarps(name string, gridDim, blockDim int, warps []trace.WarpTrace, cfg Config) (*Profile, error) {
	cfg.fillDefaults()
	p := &Profile{
		Name:       name,
		GridDim:    gridDim,
		BlockDim:   blockDim,
		LineSize:   cfg.LineSize,
		Warps:      len(warps),
		SchedPself: cfg.SchedPself,
	}
	var seqs [][]int
	var err error
	cfg.phase("profile.extract", func() {
		seqs, err = extractStats(p, warps)
	})
	if err != nil {
		return nil, err
	}
	cfg.phase("profile.cluster", func() {
		buildPiProfiles(p, warps, seqs, cfg)
	})
	return p, p.Validate()
}

// extractStats runs the per-instruction statistics passes (§4.2) over the
// warp streams, filling p's instruction table in place, and returns each
// warp's instruction-index sequence for clustering.
func extractStats(p *Profile, warps []trace.WarpTrace) ([][]int, error) {
	// Pass 1: build the static instruction table in first-appearance
	// order and count dynamic requests.
	instOf := make(map[uint64]int)
	for _, w := range warps {
		for _, r := range w.Requests {
			i, ok := instOf[r.PC]
			if !ok {
				i = len(p.Insts)
				instOf[r.PC] = i
				p.Insts = append(p.Insts, StaticInst{
					PC:          r.PC,
					Kind:        r.Kind,
					InterStride: stats.NewHistogram(),
					IntraStride: stats.NewHistogram(),
				})
			}
			p.Insts[i].Count++
			p.TotalRequests++
		}
	}
	if len(p.Insts) == 0 {
		return nil, fmt.Errorf("profiler: %s: no memory requests to profile", p.Name)
	}

	// Pass 2: per-warp statistics, in slices indexed by instruction.
	// first[i] is the warp's first access address for instruction i (the
	// anchor for inter-warp strides and for B); last chains intra-warp
	// strides; execIdx counts the warp's executions of i, and the other
	// two are read only where it is non-zero. prevFirst and prevExec are
	// the previous warp's first and execIdx.
	ni := len(p.Insts)
	first, prevFirst := make([]uint64, ni), make([]uint64, ni)
	execIdx, prevExec := make([]int, ni), make([]int, ni)
	last := make([]uint64, ni)
	runStride := make([]int64, ni)
	runLen := make([]int64, ni)
	seqs := make([][]int, len(warps))
	// Per-instruction offset reference (from the first warp executing the
	// instruction) for the §4.2 determinism check.
	refOffsets := make([][]int64, ni)
	deterministic := make([]bool, ni)
	for i := range deterministic {
		deterministic[i] = true
	}
	execCounts := make([]int, ni)
	endRun := func(i int) {
		if runLen[i] == 0 {
			return
		}
		runs := p.Insts[i].Runs
		if runs == nil {
			runs = make(map[int64]*stats.Histogram)
			p.Insts[i].Runs = runs
		}
		h := runs[runStride[i]]
		if h == nil {
			h = stats.NewHistogram()
			runs[runStride[i]] = h
		}
		h.Add(runLen[i])
		runLen[i] = 0
	}
	for wi := range warps {
		w := &warps[wi]
		seq := make([]int, 0, len(w.Requests))
		for _, r := range w.Requests {
			i := instOf[r.PC]
			seq = append(seq, i)
			if execIdx[i] > 0 {
				stride := int64(r.Addr) - int64(last[i])
				p.Insts[i].IntraStride.Add(stride)
				if runLen[i] > 0 && stride == runStride[i] {
					runLen[i]++
				} else {
					endRun(i)
					runStride[i] = stride
					runLen[i] = 1
				}
			} else {
				first[i] = r.Addr
			}
			last[i] = r.Addr
			// Widen the instruction's per-warp footprint window.
			off := int64(r.Addr) - int64(first[i])
			if off < p.Insts[i].OffLo {
				p.Insts[i].OffLo = off
			}
			if off > p.Insts[i].OffHi {
				p.Insts[i].OffHi = off
			}
			// Determinism check: compare this execution's offset against
			// the reference warp's same-numbered execution.
			n := execIdx[i]
			execIdx[i]++
			if deterministic[i] {
				if refOffsets[i] == nil || n >= len(refOffsets[i]) {
					refOffsets[i] = append(refOffsets[i], off)
				} else if refOffsets[i][n] != off {
					deterministic[i] = false
				}
			}
		}
		for i, n := range execIdx {
			endRun(i)
			if n == 0 {
				continue
			}
			inst := &p.Insts[i]
			if execCounts[i] == 0 {
				// The first warp to execute the instruction sets its
				// base address B.
				execCounts[i] = n
				inst.Base = first[i]
			} else if execCounts[i] != n {
				deterministic[i] = false
			}
			// Inter-warp strides: consecutive warps' first accesses per
			// instruction (§4.2, measured after coalescing as in
			// Table 1).
			if prevExec[i] > 0 {
				inst.InterStride.Add(int64(first[i]) - int64(prevFirst[i]))
			}
			// Anchor spread: how far any warp's first access sits from
			// the base.
			off := int64(first[i]) - int64(inst.Base)
			if off < inst.AnchorLo {
				inst.AnchorLo = off
			}
			if off > inst.AnchorHi {
				inst.AnchorHi = off
			}
		}
		first, prevFirst = prevFirst, first
		execIdx, prevExec = prevExec, execIdx
		clear(execIdx)
		seqs[wi] = seq
	}
	for i := range p.Insts {
		p.Insts[i].Deterministic = deterministic[i]
	}
	return seqs, nil
}

// buildPiProfiles clusters the per-warp instruction sequences (§4.4) and
// aggregates per-cluster reuse (P_R) at line granularity.
func buildPiProfiles(p *Profile, warps []trace.WarpTrace, seqs [][]int, cfg Config) {
	clusters := clusterSequences(seqs, cfg.ClusterThreshold, cfg.MaxProfiles)
	p.Profiles = make([]PiProfile, len(clusters))
	for ci, cl := range clusters {
		pp := &p.Profiles[ci]
		pp.Seq = cl.rep
		pp.Count = uint64(len(cl.members))
		pp.Reuse = stats.NewHistogram()
		for _, wi := range cl.members {
			tr := reuse.NewTracker(len(warps[wi].Requests))
			for _, r := range warps[wi].Requests {
				pp.Reuse.Add(tr.Access(r.Addr / cfg.LineSize))
			}
		}
		if cfg.CompressReuse {
			pp.Reuse = pp.Reuse.LogBin(64)
		}
	}
}

// similarity returns the positional similarity of two instruction
// sequences: the number of positions holding identical entries, divided by
// the longer length. Identical sequences score 1.
func similarity(a, b []int) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	same := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			same++
		}
	}
	longer := len(a)
	if len(b) > longer {
		longer = len(b)
	}
	return float64(same) / float64(longer)
}

type cluster struct {
	rep     []int
	members []int // warp indices
}

// clusterSequences groups warp instruction sequences by positional
// similarity. Identical sequences are deduplicated first (the common case:
// most warps follow the same path), then unique paths greedily join the
// first existing cluster whose representative is at least th similar,
// largest clusters first. Finally the cluster count is capped at maxM by
// folding the smallest clusters into their most similar survivor.
func clusterSequences(seqs [][]int, th float64, maxM int) []cluster {
	// Deduplicate by content.
	type group struct {
		seq     []int
		members []int
	}
	byKey := make(map[string]*group)
	order := make([]*group, 0, 8)
	var keyBuf []byte
	for wi, s := range seqs {
		keyBuf = keyBuf[:0]
		for _, v := range s {
			keyBuf = append(keyBuf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		k := string(keyBuf)
		g, ok := byKey[k]
		if !ok {
			g = &group{seq: s}
			byKey[k] = g
			order = append(order, g)
		}
		g.members = append(g.members, wi)
	}
	// Largest groups first so dominant paths become cluster seeds.
	sort.SliceStable(order, func(i, j int) bool { return len(order[i].members) > len(order[j].members) })

	var clusters []cluster
	for _, g := range order {
		placed := false
		for ci := range clusters {
			if similarity(clusters[ci].rep, g.seq) >= th {
				clusters[ci].members = append(clusters[ci].members, g.members...)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, cluster{rep: g.seq, members: append([]int(nil), g.members...)})
		}
	}
	// Cap M: fold smallest clusters into the most similar survivor.
	if len(clusters) > maxM {
		sort.SliceStable(clusters, func(i, j int) bool { return len(clusters[i].members) > len(clusters[j].members) })
		for _, extra := range clusters[maxM:] {
			best, bestSim := 0, -1.0
			for ci := 0; ci < maxM; ci++ {
				if s := similarity(clusters[ci].rep, extra.rep); s > bestSim {
					best, bestSim = ci, s
				}
			}
			clusters[best].members = append(clusters[best].members, extra.members...)
		}
		clusters = clusters[:maxM]
	}
	// Deterministic output order: by descending size, then first member.
	sort.SliceStable(clusters, func(i, j int) bool {
		if len(clusters[i].members) != len(clusters[j].members) {
			return len(clusters[i].members) > len(clusters[j].members)
		}
		return clusters[i].members[0] < clusters[j].members[0]
	})
	return clusters
}
