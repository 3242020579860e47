package eval

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/memsim"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/reuse"
	"github.com/uteda/gmap/internal/runner"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/workloads"
)

// Fig7Result carries Figure 7: DRAM design-space exploration with proxies
// across 11 GDDR5 configurations, compared on row-buffer locality, memory
// controller queue length and read/write latency.
type Fig7Result struct {
	RBL      *FigureResult
	QueueLen *FigureResult
	ReadLat  *FigureResult
	WriteLat *FigureResult
	// Normalized holds the Figure 7 bar values: per benchmark, the
	// original and proxy metric averaged over the sweep, normalized to
	// the original AES values (the paper's presentation).
	Normalized []Fig7Row
}

// Fig7Row is one benchmark's normalized bar pair per metric.
type Fig7Row struct {
	Benchmark                   string
	RBLOrig, RBLProxy           float64
	QueueOrig, QueueProxy       float64
	ReadLatOrig, ReadLatProxy   float64
	WriteLatOrig, WriteLatProxy float64
}

// fig7Sample is one DRAM configuration's paired measurement across the
// four Figure 7 metrics, in fig7Metrics order.
type fig7Sample struct {
	Orig [4]float64 `json:"orig"`
	Prox [4]float64 `json:"prox"`
}

func fig7Metrics() []core.Metric {
	return []core.Metric{core.DRAMRowBufferLocality, core.DRAMQueueLen, core.DRAMReadLatency, core.DRAMWriteLatency}
}

// Fig7 regenerates Figure 7. Each (benchmark, configuration) point is
// one execution-engine job measuring all four metrics from a single
// original/proxy simulation pair.
func (o *Options) Fig7() (*Fig7Result, error) {
	o.fillDefaults()
	start := time.Now()
	gens := DRAMSweep(o.Cores)
	metrics := fig7Metrics()
	res := &Fig7Result{
		RBL:      &FigureResult{ID: "fig7/rbl", Title: "DRAM row buffer locality", Metric: core.DRAMRowBufferLocality.Name},
		QueueLen: &FigureResult{ID: "fig7/queue", Title: "DRAM avg queue length", Metric: core.DRAMQueueLen.Name},
		ReadLat:  &FigureResult{ID: "fig7/rdlat", Title: "DRAM avg read latency", Metric: core.DRAMReadLatency.Name},
		WriteLat: &FigureResult{ID: "fig7/wrlat", Title: "DRAM avg write latency", Metric: core.DRAMWriteLatency.Name},
	}
	jobs := make([]runner.Job[fig7Sample], 0, len(o.Benchmarks)*len(gens))
	for _, name := range o.Benchmarks {
		name := name
		for _, g := range gens {
			g := g
			jobs = append(jobs, runner.Job[fig7Sample]{
				Key: o.jobKey("fig7", name, g.Label),
				Run: func(ctx context.Context) (fig7Sample, error) {
					w, err := o.workload(name)
					if err != nil {
						return fig7Sample{}, err
					}
					om, err := simulate(ctx, w, false, g)
					if err != nil {
						return fig7Sample{}, err
					}
					pm, err := simulate(ctx, w, true, g)
					if err != nil {
						return fig7Sample{}, err
					}
					var s fig7Sample
					for mi, m := range fig7Metrics() {
						s.Orig[mi] = m.Fn(om)
						s.Prox[mi] = m.Fn(pm)
					}
					return s, nil
				},
			})
		}
	}
	results, st, err := runJobs(o, "fig7", jobs)
	if err != nil {
		return nil, fmt.Errorf("eval fig7: %w", err)
	}
	if err := collectErrors("fig7", results); err != nil {
		return nil, err
	}
	type series struct{ orig, prox []float64 }
	figs := []*FigureResult{res.RBL, res.QueueLen, res.ReadLat, res.WriteLat}
	asRate := []bool{true, false, false, false}
	for bi, name := range o.Benchmarks {
		perMetric := make([]series, len(metrics))
		for gi := range gens {
			s := results[bi*len(gens)+gi].Value
			for mi := range metrics {
				perMetric[mi].orig = append(perMetric[mi].orig, s.Orig[mi])
				perMetric[mi].prox = append(perMetric[mi].prox, s.Prox[mi])
			}
		}
		for mi, fig := range figs {
			fig.Rows = append(fig.Rows, benchRow(name, perMetric[mi].orig, perMetric[mi].prox, asRate[mi]))
		}
		res.Normalized = append(res.Normalized, Fig7Row{
			Benchmark:     name,
			RBLOrig:       stats.Mean(perMetric[0].orig),
			RBLProxy:      stats.Mean(perMetric[0].prox),
			QueueOrig:     stats.Mean(perMetric[1].orig),
			QueueProxy:    stats.Mean(perMetric[1].prox),
			ReadLatOrig:   stats.Mean(perMetric[2].orig),
			ReadLatProxy:  stats.Mean(perMetric[2].prox),
			WriteLatOrig:  stats.Mean(perMetric[3].orig),
			WriteLatProxy: stats.Mean(perMetric[3].prox),
		})
		o.logf("fig7 %-12s rbl %5.2fpp queue %6.2f%% rdlat %6.2f%% wrlat %6.2f%%",
			name,
			res.RBL.Rows[len(res.RBL.Rows)-1].Error,
			res.QueueLen.Rows[len(res.QueueLen.Rows)-1].Error,
			res.ReadLat.Rows[len(res.ReadLat.Rows)-1].Error,
			res.WriteLat.Rows[len(res.WriteLat.Rows)-1].Error)
	}
	// Normalize bars to original AES, the paper's reference benchmark.
	var aes *Fig7Row
	for i := range res.Normalized {
		if res.Normalized[i].Benchmark == "aes" {
			aes = &res.Normalized[i]
			break
		}
	}
	if aes != nil {
		ref := *aes
		norm := func(v, r float64) float64 {
			if r == 0 {
				return 0
			}
			return v / r
		}
		for i := range res.Normalized {
			r := &res.Normalized[i]
			r.RBLOrig, r.RBLProxy = norm(r.RBLOrig, ref.RBLOrig), norm(r.RBLProxy, ref.RBLOrig)
			r.QueueOrig, r.QueueProxy = norm(r.QueueOrig, ref.QueueOrig), norm(r.QueueProxy, ref.QueueOrig)
			r.ReadLatOrig, r.ReadLatProxy = norm(r.ReadLatOrig, ref.ReadLatOrig), norm(r.ReadLatProxy, ref.ReadLatOrig)
			r.WriteLatOrig, r.WriteLatProxy = norm(r.WriteLatOrig, ref.WriteLatOrig), norm(r.WriteLatProxy, ref.WriteLatOrig)
		}
	}
	for _, fig := range figs {
		fig.finalize()
		if !o.NoTimings {
			fig.Elapsed = time.Since(start)
			fig.Exec = st
		}
	}
	return res, nil
}

// Fig8Point is one miniaturization level of Figure 8.
type Fig8Point struct {
	// Factor is the trace size reduction (1x..16x).
	Factor float64
	// Accuracy is 100 minus the mean absolute L1 miss-rate error in
	// percentage points, averaged over benchmarks — the left axis.
	Accuracy float64
	// Speedup is original simulation wall time divided by proxy
	// simulation wall time — the right axis.
	Speedup float64
	// RequestRatio is original/proxy request counts (the storage
	// reduction).
	RequestRatio float64
}

// Fig8Result carries the miniaturization sweep.
type Fig8Result struct {
	Points  []Fig8Point
	Elapsed time.Duration
}

// fig8Sample is one (factor, benchmark) measurement: cloning error plus
// the timing and volume inputs of the speedup/storage axes. Simulation
// times are recorded in the checkpoint so resumed points keep their
// measured speedups. Under NoTimings nothing is timed and both times are
// 0, so every execution of a point delivers the same payload.
type fig8Sample struct {
	Err      float64 `json:"err"`
	OrigNS   int64   `json:"orig_ns"`
	ProxNS   int64   `json:"prox_ns"`
	OrigReqs uint64  `json:"orig_reqs"`
	ProxReqs uint64  `json:"prox_reqs"`
}

// fig8Original is one benchmark's original simulated at Fig 8's base
// configuration, with the wall time of that one simulation.
type fig8Original struct {
	m  memsim.Metrics
	ns int64
}

// Fig8 regenerates Figure 8: cloning accuracy and simulation speedup as
// the proxy shrinks from 1x to 16x. Each (factor, benchmark) pair is one
// job. The original does not depend on the factor, so, as in the paper's
// profile-once, clone-many flow, each benchmark is prepared and its
// original simulated once per Options value; every job generates its
// factor's clone from that one profile. The original's single measured
// time is the numerator of every factor's speedup.
func (o *Options) Fig8() (*Fig8Result, error) {
	o.fillDefaults()
	start := time.Now()
	factors := []float64{1, 2, 4, 8, 16}
	base := configGen("base", baseConfig(o.Cores))
	jobs := make([]runner.Job[fig8Sample], 0, len(factors)*len(o.Benchmarks))
	for _, factor := range factors {
		factor := factor
		for _, name := range o.Benchmarks {
			name := name
			jobs = append(jobs, runner.Job[fig8Sample]{
				Key: o.jobKey("fig8", name, "factor="+strconv.FormatFloat(factor, 'g', -1, 64)),
				Run: func(ctx context.Context) (fig8Sample, error) {
					w, err := o.workload(name)
					if err != nil {
						return fig8Sample{}, err
					}
					key := o.memoKey(name)
					key.cores = o.Cores
					orig, err := o.memos.origs.get(key, func() (fig8Original, error) {
						t0 := time.Now()
						om, err := simulate(ctx, w, false, base)
						return fig8Original{m: om, ns: o.sinceNS(t0)}, err
					})
					if err != nil {
						return fig8Sample{}, err
					}
					// The cached clone was generated from the same
					// profile and seed at o.ScaleFactor, so it is this
					// factor's clone when the two agree.
					if factor != o.ScaleFactor {
						proxy, err := synth.Generate(w.Profile, synth.Options{
							Seed: o.Seed, ScaleFactor: factor, Obs: o.Obs, TraceSpan: obstrace.FromContext(ctx),
						})
						if err != nil {
							return fig8Sample{}, fmt.Errorf("eval fig8 %s at %gx: %w", name, factor, err)
						}
						clone := *w
						clone.Proxy = proxy
						w = &clone
					}
					t0 := time.Now()
					pm, err := simulate(ctx, w, true, base)
					if err != nil {
						return fig8Sample{}, err
					}
					return fig8Sample{
						Err:      stats.AbsError(orig.m.L1MissRate(), pm.L1MissRate()),
						OrigNS:   orig.ns,
						ProxNS:   o.sinceNS(t0),
						OrigReqs: orig.m.Requests,
						ProxReqs: pm.Requests,
					}, nil
				},
			})
		}
	}
	results, _, err := runJobs(o, "fig8", jobs)
	if err != nil {
		return nil, fmt.Errorf("eval fig8: %w", err)
	}
	if err := collectErrors("fig8", results); err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for fi, factor := range factors {
		var errs []float64
		var origNS, proxNS int64
		var origReqs, proxReqs uint64
		for bi := range o.Benchmarks {
			s := results[fi*len(o.Benchmarks)+bi].Value
			errs = append(errs, s.Err)
			if !o.NoTimings {
				// The speedup axis is wall-clock and thus nondeterministic
				// across executions; NoTimings drops it (rendered as "-")
				// so reports stay byte-identical. A resumed checkpoint may
				// still carry times measured by a timed run.
				origNS += s.OrigNS
				proxNS += s.ProxNS
			}
			origReqs += s.OrigReqs
			proxReqs += s.ProxReqs
		}
		pt := Fig8Point{Factor: factor, Accuracy: 100 - stats.Mean(errs)}
		if proxNS > 0 {
			pt.Speedup = float64(origNS) / float64(proxNS)
		}
		if proxReqs > 0 {
			pt.RequestRatio = float64(origReqs) / float64(proxReqs)
		}
		res.Points = append(res.Points, pt)
		o.logf("fig8 %4.0fx accuracy %6.2f%% speedup %5.2fx (request ratio %.2fx)",
			pt.Factor, pt.Accuracy, pt.Speedup, pt.RequestRatio)
	}
	if !o.NoTimings {
		res.Elapsed = time.Since(start)
	}
	return res, nil
}

// sinceNS is the wall time since t0 in nanoseconds, or 0 under NoTimings.
func (o *Options) sinceNS(t0 time.Time) int64 {
	if o.NoTimings {
		return 0
	}
	return time.Since(t0).Nanoseconds()
}

// Table1Row is one instruction row of Table 1.
type Table1Row struct {
	Benchmark   string
	PC          uint64
	Freq        float64 // fraction of dynamic references
	InterStride int64   // dominant inter-warp stride
	InterFreq   float64
	IntraStride int64 // dominant intra-warp stride
	Reuse       string
}

// Table1 regenerates Table 1: the dominant memory instructions, their
// stride structure and reuse class for the ten characterized benchmarks.
func (o *Options) Table1() ([]Table1Row, error) {
	o.fillDefaults()
	var rows []Table1Row
	for _, spec := range workloads.Table1Set() {
		p, _, err := profiler.ProfileSource(core.KernelSource(spec.Kernel(o.Scale)), profiler.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("eval table1: %s: %w", spec.Name, err)
		}
		reuseClass := reuseLevelOf(p)
		dom := p.DominantInsts()
		if len(dom) > 3 {
			dom = dom[:3]
		}
		for _, i := range dom {
			inst := p.Insts[i]
			row := Table1Row{
				Benchmark: spec.Name,
				PC:        inst.PC,
				Freq:      p.InstFrequency(i),
				Reuse:     reuseClass,
			}
			if k, f, ok := inst.InterStride.Mode(); ok {
				row.InterStride, row.InterFreq = k, f
			}
			if k, _, ok := inst.IntraStride.Mode(); ok {
				row.IntraStride = k
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// reuseLevelOf classifies a profile's temporal locality with Table 1's
// thresholds (<30% low, 30-70% med, >70% high) from its P_R component.
func reuseLevelOf(p *profiler.Profile) string {
	var total, cold uint64
	for _, pp := range p.Profiles {
		total += pp.Reuse.Total()
		cold += pp.Reuse.Count(reuse.Cold)
	}
	if total == 0 {
		return "n/a"
	}
	frac := 1 - float64(cold)/float64(total)
	switch {
	case frac > 0.7:
		return "high"
	case frac >= 0.3:
		return "med"
	default:
		return "low"
	}
}

// Table2 returns the profiled system configuration as label/value pairs —
// the constants of Table 2.
func Table2() [][2]string {
	return [][2]string{
		{"Core Config", "15 SMs, 1400MHz, max 1024 threads, 32768 registers"},
		{"L1 Cache", "16KB 4-way, 128B line size, 1-cycle hit latency"},
		{"L2 Cache", "1MB, 8 banks, 128B line size, 8-way, 20-cycle hit latency"},
		{"Features", "memory coalescing enabled, 64 MSHRs/core, LRR scheduling"},
		{"DRAM", "GDDR3, 8 channels, 1 rank/channel, 8 banks/rank, tRCD-tCAS-tRP-tRAS 11-11-11-28, FR-FCFS"},
	}
}
