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
	"strconv"

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
	// land. The JSON form writes the stride keys as decimal strings, in
	// the order of that text, as encoding/json writes such a map.
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

// WriteJSON serializes the profile: the bytes an encoding/json Encoder
// with SetIndent("", " ") writes, handed to w in chunks of about
// jsonChunk bytes.
func (p *Profile) WriteJSON(w io.Writer) error {
	e := profileJSON{b: make([]byte, 0, 2*jsonChunk), indent: true, w: w}
	if err := e.profile(p); err != nil {
		return err
	}
	if e.err == nil {
		_, e.err = w.Write(e.b)
	}
	return e.err
}

// MarshalJSON encodes the profile as json.Marshal encodes its fields,
// without reflection. A NaN or infinite SchedPself is an error, as it
// is for encoding/json.
func (p *Profile) MarshalJSON() ([]byte, error) {
	var e profileJSON
	err := e.profile(p)
	return e.b, err
}

// jsonChunk is the size at which WriteJSON hands its buffer to the
// writer.
const jsonChunk = 64 << 10

// jsonSpaces indents the deepest line of an indented profile: the
// entries of a run-length histogram.
const jsonSpaces = "     "

// profileJSON appends a profile's JSON to b, laid out as encoding/json
// lays it out: compact as json.Marshal writes it, or indented as an
// Encoder with SetIndent("", " ") writes it. encoding/json's output is
// the specification; FuzzWriteJSONMatchesEncodingJSON holds the two
// equal. With w set, b is handed to w whenever it passes jsonChunk.
type profileJSON struct {
	b      []byte
	indent bool
	w      io.Writer
	err    error // the first error w returned
}

// flush hands b to w once it holds a chunk.
func (e *profileJSON) flush() {
	if e.w == nil || len(e.b) < jsonChunk {
		return
	}
	if e.err == nil {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

// line starts a line at depth in the indented form.
func (e *profileJSON) line(depth int) {
	if e.indent {
		e.b = append(e.b, '\n')
		e.b = append(e.b, jsonSpaces[:depth]...)
	}
}

// key starts the object member name at depth, after a comma unless it
// is the first.
func (e *profileJSON) key(depth int, name string, first bool) {
	if !first {
		e.b = append(e.b, ',')
	}
	e.line(depth)
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
	if e.indent {
		e.b = append(e.b, ' ')
	}
}

// array appends an array of n elements, or null for a nil slice, whose
// line is at depth; elem appends element i.
func (e *profileJSON) array(depth, n int, isNil bool, elem func(i int)) {
	if isNil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.line(depth + 1)
		elem(i)
		e.flush()
	}
	e.end(depth, n, ']')
}

// end closes, with c, an array or object of n elements whose line is at
// depth.
func (e *profileJSON) end(depth, n int, c byte) {
	if n > 0 {
		e.line(depth)
	}
	e.b = append(e.b, c)
}

func (e *profileJSON) i64(v int64)  { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *profileJSON) u64(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// hist appends h, whose line is at depth.
func (e *profileJSON) hist(depth int, h *stats.Histogram) {
	switch {
	case h == nil:
		e.b = append(e.b, "null"...)
	case e.indent:
		e.b = h.AppendJSON(e.b, jsonSpaces[:depth], " ")
	default:
		e.b = h.AppendJSON(e.b, "", "")
	}
}

func (e *profileJSON) profile(p *Profile) error {
	// The two fields without a fixed form go through encoding/json
	// itself: it escapes the name (HTML characters included) and
	// formats the float, or rejects NaN and infinities before any byte
	// is written.
	name, err := json.Marshal(p.Name)
	if err != nil {
		return err
	}
	pself, err := json.Marshal(p.SchedPself)
	if err != nil {
		return err
	}
	e.b = append(e.b, '{')
	e.key(1, "name", true)
	e.b = append(e.b, name...)
	e.key(1, "grid_dim", false)
	e.i64(int64(p.GridDim))
	e.key(1, "block_dim", false)
	e.i64(int64(p.BlockDim))
	e.key(1, "line_size", false)
	e.u64(p.LineSize)
	e.key(1, "warps", false)
	e.i64(int64(p.Warps))
	e.key(1, "total_requests", false)
	e.u64(p.TotalRequests)
	e.key(1, "insts", false)
	e.array(1, len(p.Insts), p.Insts == nil, func(i int) { e.inst(&p.Insts[i]) })
	e.key(1, "profiles", false)
	e.array(1, len(p.Profiles), p.Profiles == nil, func(i int) { e.pi(&p.Profiles[i]) })
	e.key(1, "sched_p_self", false)
	e.b = append(e.b, pself...)
	e.end(0, 1, '}')
	if e.indent {
		e.b = append(e.b, '\n')
	}
	return nil
}

// inst appends a StaticInst whose line is at depth 2.
func (e *profileJSON) inst(in *StaticInst) {
	e.b = append(e.b, '{')
	e.key(3, "pc", true)
	e.u64(in.PC)
	e.key(3, "kind", false)
	e.u64(uint64(in.Kind))
	e.key(3, "base", false)
	e.u64(in.Base)
	e.key(3, "inter_stride", false)
	e.hist(3, in.InterStride)
	e.key(3, "intra_stride", false)
	e.hist(3, in.IntraStride)
	e.key(3, "count", false)
	e.u64(in.Count)
	e.key(3, "off_lo", false)
	e.i64(in.OffLo)
	e.key(3, "off_hi", false)
	e.i64(in.OffHi)
	e.key(3, "anchor_lo", false)
	e.i64(in.AnchorLo)
	e.key(3, "anchor_hi", false)
	e.i64(in.AnchorHi)
	if len(in.Runs) > 0 {
		// encoding/json orders an integer-keyed map by the keys' text.
		keys := make([]int64, 0, len(in.Runs))
		for k := range in.Runs {
			keys = append(keys, k)
		}
		stats.SortText(keys)
		e.key(3, "runs", false)
		e.b = append(e.b, '{')
		for i, k := range keys {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.line(4)
			e.b = append(e.b, '"')
			e.i64(k)
			e.b = append(e.b, '"', ':')
			if e.indent {
				e.b = append(e.b, ' ')
			}
			e.hist(4, in.Runs[k])
			e.flush()
		}
		e.end(3, len(keys), '}')
	}
	e.key(3, "deterministic", false)
	e.b = strconv.AppendBool(e.b, in.Deterministic)
	e.end(2, 1, '}')
}

// pi appends a PiProfile whose line is at depth 2.
func (e *profileJSON) pi(pp *PiProfile) {
	e.b = append(e.b, '{')
	e.key(3, "seq", true)
	e.array(3, len(pp.Seq), pp.Seq == nil, func(i int) { e.i64(int64(pp.Seq[i])) })
	e.key(3, "count", false)
	e.u64(pp.Count)
	e.key(3, "reuse", false)
	e.hist(3, pp.Reuse)
	e.end(2, 1, '}')
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
