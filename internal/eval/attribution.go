package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/trace"
)

// AttrOptions configures per-π / per-PC accuracy attribution. When a
// benchmark's figure error exceeds Threshold, the clone's warps are
// re-profiled with the original's profiling configuration and the two
// statistical profiles are compared component by component, answering
// "which part of the statistical model missed": a π cluster whose weight
// or reuse distribution drifted, or a static instruction whose stride
// distributions the generator failed to reproduce.
type AttrOptions struct {
	// Threshold is the figure-error level (in the figure's own unit —
	// percentage points for rates, relative percent for magnitudes) above
	// which a benchmark row is attributed. Zero attributes every row.
	Threshold float64
	// TopK caps the ranked π and PC entries per report (default 8).
	TopK int

	mu      sync.Mutex
	reports []*AttrReport
}

func (a *AttrOptions) topK() int {
	if a.TopK <= 0 {
		return 8
	}
	return a.TopK
}

func (a *AttrOptions) add(r *AttrReport) {
	a.mu.Lock()
	a.reports = append(a.reports, r)
	a.mu.Unlock()
}

// Reports returns the accumulated attribution reports in deterministic
// (experiment, benchmark) order. Safe to call after the sweeps drain.
func (a *AttrOptions) Reports() []*AttrReport {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	out := make([]*AttrReport, len(a.reports))
	copy(out, a.reports)
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		return out[i].Benchmark < out[j].Benchmark
	})
	return out
}

// AttrReport is one benchmark's accuracy drill-down: the figure row that
// tripped the threshold plus the ranked per-π and per-PC decomposition of
// where the clone's statistical profile diverged from the original's.
type AttrReport struct {
	Experiment string  `json:"experiment"`
	Benchmark  string  `json:"benchmark"`
	Metric     string  `json:"metric"`
	Error      float64 `json:"error"`
	Unit       string  `json:"unit"`
	Threshold  float64 `json:"threshold"`
	// Profiles ranks the π clusters by modeled contribution to the miss
	// (weight × divergence), worst first.
	Profiles []PiAttribution `json:"profiles"`
	// PCs ranks the static instructions the same way.
	PCs []PCAttribution `json:"pcs"`
}

// PiAttribution compares one original π cluster against its best-matching
// clone cluster.
type PiAttribution struct {
	// Pi is the original π index; ClonePi the matched clone π (-1 when no
	// clone cluster resembles it).
	Pi      int `json:"pi"`
	ClonePi int `json:"clone_pi"`
	// Weight and CloneWeight are Q(π) on either side.
	Weight      float64 `json:"weight"`
	CloneWeight float64 `json:"clone_weight"`
	// ReuseTV is the total-variation distance between the two reuse
	// (stack-distance) histograms — the P_R component of the model.
	ReuseTV float64 `json:"reuse_tv"`
	// SeqTV is the total-variation distance between the instruction-mix
	// vectors of the two representative sequences; it measures how well
	// the match itself holds.
	SeqTV float64 `json:"seq_tv"`
	// Score = Weight × (|Weight−CloneWeight| + ReuseTV + SeqTV); the
	// ranking key.
	Score float64 `json:"score"`
}

// PCAttribution compares one static instruction across the two profiles.
type PCAttribution struct {
	PC   uint64 `json:"pc"`
	Kind string `json:"kind"`
	// Freq and CloneFreq are the instruction's share of dynamic requests
	// (the "%Mem Freq" of Table 1) on either side.
	Freq      float64 `json:"freq"`
	CloneFreq float64 `json:"clone_freq"`
	// InterTV and IntraTV are total-variation distances of the P_E and
	// P_A stride distributions.
	InterTV float64 `json:"inter_tv"`
	IntraTV float64 `json:"intra_tv"`
	// Score = Freq × (|Freq−CloneFreq| + InterTV + IntraTV).
	Score float64 `json:"score"`
}

func kindName(k trace.Kind) string {
	switch k {
	case trace.Load:
		return "load"
	case trace.Store:
		return "store"
	case trace.Sync:
		return "sync"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// seqMix builds the instruction-mix distribution of a π sequence: how
// often each PC appears, as a histogram keyed by PC. Two π clusters with
// similar mixes describe the same execution path even if the clone's
// clustering numbered them differently.
func seqMix(p *profiler.Profile, pi int) *stats.Histogram {
	h := stats.NewHistogram()
	for _, idx := range p.Profiles[pi].Seq {
		h.Add(int64(p.Insts[idx].PC))
	}
	return h
}

// attribute re-profiles the clone and decomposes the divergence. The
// clone's warps are profiled with the original's line size and default
// clustering, so both profiles are measured with the same instrument.
func attribute(w *core.Workload, topK int) ([]PiAttribution, []PCAttribution, error) {
	orig := w.Profile
	pcfg := profiler.DefaultConfig()
	pcfg.LineSize = orig.LineSize
	clone, err := profiler.ProfileWarps(w.Proxy.Name, w.Proxy.GridDim, w.Proxy.BlockDim, w.Proxy.Warps, pcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: re-profiling clone of %s: %w", w.Name, err)
	}

	// Per-π: match each original cluster to the clone cluster with the
	// closest instruction mix, then compare weights and reuse shapes.
	cloneMixes := make([]*stats.Histogram, len(clone.Profiles))
	for j := range clone.Profiles {
		cloneMixes[j] = seqMix(clone, j)
	}
	pis := make([]PiAttribution, 0, len(orig.Profiles))
	for i := range orig.Profiles {
		mix := seqMix(orig, i)
		best, bestTV := -1, math.Inf(1)
		for j := range clone.Profiles {
			if tv := stats.HistDistance(mix, cloneMixes[j]); tv < bestTV {
				best, bestTV = j, tv
			}
		}
		pa := PiAttribution{Pi: i, ClonePi: best, Weight: orig.Q(i)}
		if best >= 0 {
			pa.CloneWeight = clone.Q(best)
			pa.SeqTV = bestTV
			pa.ReuseTV = stats.HistDistance(orig.Profiles[i].Reuse, clone.Profiles[best].Reuse)
		} else {
			pa.SeqTV, pa.ReuseTV = 1, 1
		}
		pa.Score = pa.Weight * (math.Abs(pa.Weight-pa.CloneWeight) + pa.ReuseTV + pa.SeqTV)
		pis = append(pis, pa)
	}
	sort.Slice(pis, func(a, b int) bool {
		if pis[a].Score != pis[b].Score {
			return pis[a].Score > pis[b].Score
		}
		return pis[a].Pi < pis[b].Pi
	})
	if len(pis) > topK {
		pis = pis[:topK]
	}

	// Per-PC: instructions match by identity — the generator preserves
	// PCs — so a missing clone-side PC is itself a finding.
	pcs := make([]PCAttribution, 0, len(orig.Insts))
	for k := range orig.Insts {
		inst := &orig.Insts[k]
		pa := PCAttribution{PC: inst.PC, Kind: kindName(inst.Kind), Freq: orig.InstFrequency(k)}
		if ck := clone.InstIndex(inst.PC); ck >= 0 {
			cinst := &clone.Insts[ck]
			pa.CloneFreq = clone.InstFrequency(ck)
			pa.InterTV = stats.HistDistance(inst.InterStride, cinst.InterStride)
			pa.IntraTV = stats.HistDistance(inst.IntraStride, cinst.IntraStride)
		} else {
			pa.InterTV, pa.IntraTV = 1, 1
		}
		pa.Score = pa.Freq * (math.Abs(pa.Freq-pa.CloneFreq) + pa.InterTV + pa.IntraTV)
		pcs = append(pcs, pa)
	}
	sort.Slice(pcs, func(a, b int) bool {
		if pcs[a].Score != pcs[b].Score {
			return pcs[a].Score > pcs[b].Score
		}
		return pcs[a].PC < pcs[b].PC
	})
	if len(pcs) > topK {
		pcs = pcs[:topK]
	}
	return pis, pcs, nil
}

// maybeAttribute runs attribution for a figure row that exceeded the
// threshold. Attribution is diagnostic: failures are logged, never fatal
// to the sweep.
func (o *Options) maybeAttribute(experiment string, row BenchResult, metric string, asRate bool) {
	if o.Attr == nil || row.Error <= o.Attr.Threshold {
		return
	}
	w, err := o.workload(row.Benchmark)
	if err != nil {
		o.logf("%s %-12s attribution skipped: %v", experiment, row.Benchmark, err)
		return
	}
	pis, pcs, err := attribute(w, o.Attr.topK())
	if err != nil {
		o.logf("%s %-12s attribution failed: %v", experiment, row.Benchmark, err)
		return
	}
	o.Attr.add(&AttrReport{
		Experiment: experiment,
		Benchmark:  row.Benchmark,
		Metric:     metric,
		Error:      row.Error,
		Unit:       errUnit(asRate),
		Threshold:  o.Attr.Threshold,
		Profiles:   pis,
		PCs:        pcs,
	})
	o.logf("%s %-12s error %.2f%s > %.2f: attributed (%d π, %d PCs ranked)",
		experiment, row.Benchmark, row.Error, errUnit(asRate), o.Attr.Threshold, len(pis), len(pcs))
}

// WriteAttrJSON emits the reports as an indented JSON array.
func WriteAttrJSON(w io.Writer, reports []*AttrReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if reports == nil {
		reports = []*AttrReport{}
	}
	return enc.Encode(reports)
}

// WriteAttrMarkdown renders the reports as a human-readable drill-down.
func WriteAttrMarkdown(w io.Writer, reports []*AttrReport) error {
	if _, err := fmt.Fprintf(w, "# Accuracy attribution\n"); err != nil {
		return err
	}
	if len(reports) == 0 {
		_, err := fmt.Fprintf(w, "\nNo benchmark exceeded the error threshold.\n")
		return err
	}
	for _, r := range reports {
		fmt.Fprintf(w, "\n## %s / %s — %s error %.2f%s (threshold %.2f)\n",
			r.Experiment, r.Benchmark, r.Metric, r.Error, r.Unit, r.Threshold)
		fmt.Fprintf(w, "\n### π profiles (worst first)\n\n")
		fmt.Fprintf(w, "| rank | π | clone π | Q | clone Q | reuse TV | seq TV | score |\n")
		fmt.Fprintf(w, "|-----:|--:|--------:|--:|--------:|---------:|-------:|------:|\n")
		for i, p := range r.Profiles {
			fmt.Fprintf(w, "| %d | %d | %d | %.3f | %.3f | %.3f | %.3f | %.4f |\n",
				i+1, p.Pi, p.ClonePi, p.Weight, p.CloneWeight, p.ReuseTV, p.SeqTV, p.Score)
		}
		fmt.Fprintf(w, "\n### Static instructions (worst first)\n\n")
		fmt.Fprintf(w, "| rank | pc | kind | freq | clone freq | inter TV | intra TV | score |\n")
		fmt.Fprintf(w, "|-----:|---:|------|-----:|-----------:|---------:|---------:|------:|\n")
		for i, p := range r.PCs {
			if _, err := fmt.Fprintf(w, "| %d | %#x | %s | %.3f | %.3f | %.3f | %.3f | %.4f |\n",
				i+1, p.PC, p.Kind, p.Freq, p.CloneFreq, p.InterTV, p.IntraTV, p.Score); err != nil {
				return err
			}
		}
	}
	return nil
}
