package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/runner"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/workloads"
)

// AblationVariant is one generator configuration in the ablation study.
type AblationVariant struct {
	Name string
	Abl  synth.Ablation
}

// AblationVariants returns the study's generator variants: the full
// generator, each mechanism removed in isolation, and the bare paper
// algorithm with every extension removed.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{Name: "full", Abl: synth.Ablation{}},
		{Name: "-windows", Abl: synth.Ablation{NoWindows: true}},
		{Name: "-templates", Abl: synth.Ablation{NoTemplates: true}},
		{Name: "-runlengths", Abl: synth.Ablation{NoRunLengths: true}},
		{Name: "-reuse", Abl: synth.Ablation{NoReuse: true}},
		{Name: "bare-alg1", Abl: synth.Ablation{NoWindows: true, NoTemplates: true, NoRunLengths: true}},
	}
}

// AblationRow is one benchmark's L1/L2 miss-rate error (percentage
// points, default configuration) under each generator variant.
type AblationRow struct {
	Benchmark string
	// L1Err and L2Err are parallel to AblationVariants().
	L1Err []float64
	L2Err []float64
}

// AblationResult carries the study.
type AblationResult struct {
	Variants []string
	Rows     []AblationRow
	// AvgL1 and AvgL2 are per-variant averages over benchmarks.
	AvgL1, AvgL2 []float64
	Elapsed      time.Duration
	// Exec summarizes the execution engine's work for the study.
	Exec runner.Stats
}

// ablSample is one configuration's L1/L2 miss-rate pair, for either the
// original stream or one variant's proxy.
type ablSample struct {
	L1 float64 `json:"l1"`
	L2 float64 `json:"l2"`
}

// variantCache builds each (benchmark, variant) proxy workload at most
// once, on the first job that needs it.
type variantCache struct {
	o  *Options
	wl *workloadCache
	m  memo[[2]string, *core.Workload]
}

func (c *variantCache) get(benchmark string, v AblationVariant) (*core.Workload, error) {
	return c.m.get([2]string{benchmark, v.Name}, func() (*core.Workload, error) {
		base, err := c.wl.get(benchmark)
		if err != nil {
			return nil, err
		}
		proxy, err := synth.Generate(base.Profile, synth.Options{
			Seed: c.o.Seed, ScaleFactor: c.o.ScaleFactor, Ablation: v.Abl,
		})
		if err != nil {
			return nil, fmt.Errorf("eval ablation %s/%s: %w", benchmark, v.Name, err)
		}
		w := *base
		w.Proxy = proxy
		return &w, nil
	})
}

// Ablation measures how much each beyond-paper generation mechanism
// (footprint windows, per-cluster templates, stride run lengths, reuse
// replay) contributes to clone accuracy, by disabling them one at a time
// (DESIGN.md §5). The original side is variant-independent and simulated
// once per configuration; originals and every variant's proxies all run
// as independent execution-engine jobs.
func (o *Options) Ablation() (*AblationResult, error) {
	o.fillDefaults()
	start := time.Now()
	variants := AblationVariants()
	res := &AblationResult{
		AvgL1: make([]float64, len(variants)),
		AvgL2: make([]float64, len(variants)),
	}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.Name)
	}
	// The study sweeps Figure 6a's 30 L1 configurations per variant. To
	// keep the cost tractable it defaults to a representative subset
	// spanning the behaviour classes (cyclic high-reuse, overlapping
	// sweeps, multi-phase, irregular) unless the caller chose benchmarks.
	benchmarks := o.Benchmarks
	if len(benchmarks) == len(workloads.Names()) {
		benchmarks = []string{"kmeans", "cp", "bp", "heartwall", "srad", "bfs"}
	}
	gens := L1Sweep(o.Cores)
	wl := o.workloads()
	vc := &variantCache{o: o, wl: wl}

	// Jobs: originals first (benchmark-major), then proxies
	// (benchmark, variant, configuration), all in one pool drain.
	var jobs []runner.Job[ablSample]
	for _, name := range benchmarks {
		name := name
		for _, g := range gens {
			g := g
			jobs = append(jobs, runner.Job[ablSample]{
				Key: o.jobKey("ablation", name, "orig", g.Label),
				Run: func(ctx context.Context) (ablSample, error) {
					w, err := wl.get(name)
					if err != nil {
						return ablSample{}, err
					}
					cfg, err := g.Make()
					if err != nil {
						return ablSample{}, err
					}
					om, err := w.SimulateOriginal(cfg)
					if err != nil {
						return ablSample{}, err
					}
					return ablSample{L1: om.L1MissRate(), L2: om.L2MissRate()}, nil
				},
			})
		}
	}
	origJobs := len(jobs)
	for _, name := range benchmarks {
		name := name
		for _, v := range variants {
			v := v
			for _, g := range gens {
				g := g
				jobs = append(jobs, runner.Job[ablSample]{
					Key: o.jobKey("ablation", name, "variant="+v.Name, g.Label),
					Run: func(ctx context.Context) (ablSample, error) {
						w, err := vc.get(name, v)
						if err != nil {
							return ablSample{}, err
						}
						cfg, err := g.Make()
						if err != nil {
							return ablSample{}, err
						}
						pm, err := w.SimulateProxy(cfg)
						if err != nil {
							return ablSample{}, err
						}
						return ablSample{L1: pm.L1MissRate(), L2: pm.L2MissRate()}, nil
					},
				})
			}
		}
	}
	results, st, err := runJobs(o, "ablation", jobs)
	if err != nil {
		return nil, fmt.Errorf("eval ablation: %w", err)
	}
	if err := collectErrors("ablation", results); err != nil {
		return nil, err
	}
	for bi, name := range benchmarks {
		origL1 := make([]float64, len(gens))
		origL2 := make([]float64, len(gens))
		for gi := range gens {
			s := results[bi*len(gens)+gi].Value
			origL1[gi], origL2[gi] = s.L1, s.L2
		}
		row := AblationRow{Benchmark: name}
		for vi := range variants {
			base := origJobs + (bi*len(variants)+vi)*len(gens)
			var l1, l2 float64
			for gi := range gens {
				s := results[base+gi].Value
				l1 += stats.AbsError(origL1[gi], s.L1) / float64(len(gens))
				l2 += stats.AbsError(origL2[gi], s.L2) / float64(len(gens))
			}
			row.L1Err = append(row.L1Err, l1)
			row.L2Err = append(row.L2Err, l2)
			res.AvgL1[vi] += l1 / float64(len(benchmarks))
			res.AvgL2[vi] += l2 / float64(len(benchmarks))
		}
		res.Rows = append(res.Rows, row)
		o.logf("ablation %-12s full %5.2fpp  bare %5.2fpp (L1, 30-config sweep)",
			name, row.L1Err[0], row.L1Err[len(row.L1Err)-1])
	}
	if !o.NoTimings {
		res.Elapsed = time.Since(start)
		res.Exec = st
	}
	return res, nil
}

// WriteAblation renders the study.
func WriteAblation(w io.Writer, r *AblationResult) error {
	fmt.Fprintln(w, "== ablation: contribution of each generation mechanism ==")
	fmt.Fprintln(w, "L1 miss-rate error (percentage points), averaged over the 30-configuration L1 sweep:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, v := range r.Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s", row.Benchmark)
		for _, e := range row.L1Err {
			fmt.Fprintf(tw, "\t%.2f", e)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "AVERAGE")
	for _, e := range r.AvgL1 {
		fmt.Fprintf(tw, "\t%.2f", e)
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "AVERAGE L2")
	for _, e := range r.AvgL2 {
		fmt.Fprintf(tw, "\t%.2f", e)
	}
	fmt.Fprintln(tw)
	if err := tw.Flush(); err != nil {
		return err
	}
	if r.Elapsed > 0 {
		fmt.Fprintf(w, "(regenerated in %v)\n", r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	return nil
}
