// Package profiler implements G-MAP's profiling phase: it reduces a GPU
// kernel's memory reference stream to the compact statistical profile
// (Π, Q, B, P_S, P_R) of §4.6 of the paper.
//
// Profiling operates on coalesced warp-level request streams — coalescing
// is applied before locality analysis (§4), so the warp is the "thread"
// unit of the statistics and of Algorithm 1. For every static memory
// instruction the profiler captures the inter-warp stride distribution
// (P_E, §4.2) and intra-warp stride distribution (P_A, §4.3); for every
// dominant dynamic memory execution path (π profile, §4.1, clustered per
// §4.4) it captures the LRU stack-distance distribution (P_R, §4.3); and
// it records the base address of each instruction (B) and the launch
// geometry, which proxies preserve.
package profiler

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
)

// decodeJSONError rewrites a json decode failure to carry the byte
// offset where the input broke, so a corrupt profile file points at the
// damage instead of only naming the Go type that failed to fit.
func decodeJSONError(what string, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return fmt.Errorf("profiler: decoding %s: offset %d: %w", what, syn.Offset, err)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return fmt.Errorf("profiler: decoding %s: offset %d (field %q): %w", what, typ.Offset, typ.Field, err)
	}
	return fmt.Errorf("profiler: decoding %s: %w", what, err)
}

// StaticInst is the per-static-instruction component of the profile: the
// instruction identity, its base address b(k), and its two code-localized
// stride distributions.
type StaticInst struct {
	// PC identifies the static instruction.
	PC uint64 `json:"pc"`
	// Kind records whether the instruction loads or stores. Mixed-kind PCs
	// do not occur in SASS/PTX; the profiler keeps the first kind seen.
	Kind trace.Kind `json:"kind"`
	// Base is the address of warp 0's first execution of the instruction
	// (b(k) in Algorithm 1). Replacing it obfuscates the proxy stream.
	Base uint64 `json:"base"`
	// InterStride is P_E: the distribution of strides between consecutive
	// warps' first accesses from this instruction.
	InterStride *stats.Histogram `json:"inter_stride"`
	// IntraStride is P_A: the distribution of strides between successive
	// dynamic executions of this instruction within one warp.
	IntraStride *stats.Histogram `json:"intra_stride"`
	// Count is the total number of dynamic requests from this instruction,
	// used for Table 1-style frequency reporting.
	Count uint64 `json:"count"`
	// OffLo and OffHi bound the per-warp footprint of the instruction:
	// the widest observed range of (address - warp's first address) across
	// all warps. The proxy generator confines its stride walk to this
	// window, which keeps the clone's working set equal to the
	// original's — the statistical stride mix alone would otherwise
	// diffuse (see DESIGN.md §5).
	OffLo int64 `json:"off_lo"`
	OffHi int64 `json:"off_hi"`
	// AnchorLo and AnchorHi bound the inter-warp anchor spread: the range
	// of (warp's first address - Base) across all warps. The generator
	// confines the rolling base chain of Algorithm 1 (line 9) to this
	// window for the same reason — independently sampled inter-warp
	// strides would otherwise random-walk the anchors apart, breaking
	// cross-warp sharing of windows the original keeps resident.
	AnchorLo int64 `json:"anchor_lo"`
	AnchorHi int64 `json:"anchor_hi"`
	// Runs records, for each intra-warp stride value, the distribution of
	// run lengths (how many consecutive executions kept that stride).
	// Plain iid sampling from IntraStride yields geometric run lengths;
	// real kernels have fixed-length inner sweeps (e.g. 16 consecutive
	// +128 steps per op), and the run structure controls where revisits
	// land. encoding/json writes the stride keys as decimal strings, in
	// the order of that text.
	Runs map[int64]*stats.Histogram `json:"runs,omitempty"`
	// Deterministic reports that every warp executed this instruction the
	// same number of times with the identical sequence of offsets from
	// its own first access — the tid-linear regularity of §4.2. The
	// generator then instantiates one sampled offset template per π
	// cluster and replays it for every warp (shifted by the chained
	// anchors), which preserves the cross-warp phase alignment the
	// lockstep SIMT execution gives the original. Irregular instructions
	// (data-dependent gathers) stay per-warp stochastic.
	Deterministic bool `json:"deterministic"`
}

// PiProfile is one dominant dynamic memory execution path: the sequence of
// static instructions (as indices into Profile.Insts) a warp issues, its
// weight in the warp population, and the reuse-distance distribution of
// warps following it.
type PiProfile struct {
	// Seq is the instruction-index sequence of the representative path.
	Seq []int `json:"seq"`
	// Count is the number of warps clustered onto this profile; Q(π) =
	// Count / total warps.
	Count uint64 `json:"count"`
	// Reuse is P_R: the cacheline stack-distance histogram aggregated over
	// the cluster's warps (reuse.Cold keyed as -1).
	Reuse *stats.Histogram `json:"reuse"`
}

// Profile is the complete G-MAP statistical profile of one kernel — the
// 5-tuple (Π, Q, B, P_S, P_R) plus launch geometry and scheduling
// metadata. It contains no original addresses other than the (optionally
// obfuscated) per-instruction base addresses.
type Profile struct {
	// Name is the profiled kernel/benchmark name.
	Name string `json:"name"`
	// GridDim and BlockDim are the launch geometry, preserved by proxies.
	GridDim  int `json:"grid_dim"`
	BlockDim int `json:"block_dim"`
	// LineSize is the coalescing granularity the statistics were captured
	// at, in bytes.
	LineSize uint64 `json:"line_size"`
	// Warps is the number of warps profiled.
	Warps int `json:"warps"`
	// TotalRequests is the total coalesced request count of the original
	// stream; miniaturization scales the proxy budget J from it.
	TotalRequests uint64 `json:"total_requests"`
	// Insts is the static instruction table (B and P_S).
	Insts []StaticInst `json:"insts"`
	// Profiles is Π with per-profile weights (Q) and reuse (P_R).
	Profiles []PiProfile `json:"profiles"`
	// SchedPself is the probability of scheduling the same warp
	// consecutively (§4.5); 0 means pure round-robin.
	SchedPself float64 `json:"sched_p_self"`
}

// InstIndex returns the index of pc in the instruction table, or -1.
func (p *Profile) InstIndex(pc uint64) int {
	for i := range p.Insts {
		if p.Insts[i].PC == pc {
			return i
		}
	}
	return -1
}

// Q returns the probability of profile i.
func (p *Profile) Q(i int) float64 {
	var total uint64
	for _, pp := range p.Profiles {
		total += pp.Count
	}
	if total == 0 {
		return 0
	}
	return float64(p.Profiles[i].Count) / float64(total)
}

// Validate checks structural consistency of the profile, including that
// every probability-valued field is a real number in [0, 1] — a corrupt
// or hand-edited profile JSON must fail here, not surface as NaN
// addresses deep inside the generator.
func (p *Profile) Validate() error {
	if p.GridDim <= 0 || p.BlockDim <= 0 {
		return fmt.Errorf("profiler: profile %q has degenerate geometry %dx%d", p.Name, p.GridDim, p.BlockDim)
	}
	if p.LineSize == 0 || p.LineSize&(p.LineSize-1) != 0 {
		return fmt.Errorf("profiler: profile %q line size %d not a power of two", p.Name, p.LineSize)
	}
	if p.Warps < 0 {
		return fmt.Errorf("profiler: profile %q has negative warp count %d", p.Name, p.Warps)
	}
	if math.IsNaN(p.SchedPself) || p.SchedPself < 0 || p.SchedPself > 1 {
		return fmt.Errorf("profiler: profile %q sched_p_self %v is not a probability", p.Name, p.SchedPself)
	}
	if len(p.Insts) == 0 {
		return fmt.Errorf("profiler: profile %q has no instructions", p.Name)
	}
	for i := range p.Insts {
		inst := &p.Insts[i]
		if inst.InterStride == nil || inst.IntraStride == nil {
			return fmt.Errorf("profiler: profile %q: inst %d (pc %#x) has a null stride histogram",
				p.Name, i, inst.PC)
		}
		for _, h := range inst.Runs {
			if h == nil {
				return fmt.Errorf("profiler: profile %q: inst %d (pc %#x) has a null run-length histogram",
					p.Name, i, inst.PC)
			}
		}
		if inst.OffLo > inst.OffHi {
			return fmt.Errorf("profiler: profile %q: inst %d (pc %#x) offset window [%d, %d] inverted",
				p.Name, i, inst.PC, inst.OffLo, inst.OffHi)
		}
		if inst.AnchorLo > inst.AnchorHi {
			return fmt.Errorf("profiler: profile %q: inst %d (pc %#x) anchor window [%d, %d] inverted",
				p.Name, i, inst.PC, inst.AnchorLo, inst.AnchorHi)
		}
	}
	if len(p.Profiles) == 0 {
		return fmt.Errorf("profiler: profile %q has no π profiles", p.Name)
	}
	var piTotal uint64
	for i, pp := range p.Profiles {
		if len(pp.Seq) == 0 {
			return fmt.Errorf("profiler: profile %q: π[%d] empty", p.Name, i)
		}
		if pp.Reuse == nil {
			return fmt.Errorf("profiler: profile %q: π[%d] has a null reuse histogram", p.Name, i)
		}
		for _, idx := range pp.Seq {
			if idx < 0 || idx >= len(p.Insts) {
				return fmt.Errorf("profiler: profile %q: π[%d] references instruction %d of %d", p.Name, i, idx, len(p.Insts))
			}
		}
		piTotal += pp.Count
	}
	if piTotal == 0 {
		return fmt.Errorf("profiler: profile %q: all π weights are zero, Q is undefined", p.Name)
	}
	return nil
}

// WriteJSON serializes the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// ReadJSON deserializes a profile written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, decodeJSONError("profile", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// InstFrequency returns the fraction of all dynamic requests issued by
// instruction index i — the "%Mem Freq" column of Table 1.
func (p *Profile) InstFrequency(i int) float64 {
	if p.TotalRequests == 0 {
		return 0
	}
	return float64(p.Insts[i].Count) / float64(p.TotalRequests)
}

// DominantInsts returns instruction indices sorted by descending dynamic
// frequency — the Table 1 row ordering.
func (p *Profile) DominantInsts() []int {
	idx := make([]int, len(p.Insts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if p.Insts[ia].Count != p.Insts[ib].Count {
			return p.Insts[ia].Count > p.Insts[ib].Count
		}
		return p.Insts[ia].PC < p.Insts[ib].PC
	})
	return idx
}
