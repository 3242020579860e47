// Package core orchestrates the complete G-MAP pipeline of Figure 2:
// profiling a workload's memory reference stream into the statistical
// profile (phase ①/②), generating a miniaturized proxy from it (phase ③),
// simulating either stream on the memory-hierarchy model, and validating
// proxy fidelity with the paper's two metrics — percentage error and
// Pearson correlation across configuration sweeps.
package core

import (
	"fmt"

	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// Workload bundles one benchmark's original stream, its profile and its
// generated proxy, ready for side-by-side simulation.
type Workload struct {
	Name string
	// Trace is the original per-thread reference stream.
	Trace *trace.KernelTrace
	// Warps is the coalesced original, the form the simulator consumes.
	Warps []trace.WarpTrace
	// Profile is the extracted statistical profile.
	Profile *profiler.Profile
	// Proxy is the generated clone.
	Proxy *synth.Proxy
}

// Prepare runs the full pipeline for a named benchmark at the given
// workload scale.
func Prepare(name string, scale int, pcfg profiler.Config, sopts synth.Options) (*Workload, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q (have %v)", name, workloads.Names())
	}
	tr, err := spec.Trace(scale)
	if err != nil {
		return nil, err
	}
	return PrepareTrace(tr, pcfg, sopts)
}

// PrepareTrace runs the pipeline over an externally supplied trace. The
// trace is coalesced once: the warps the profiler built become Warps.
func PrepareTrace(tr *trace.KernelTrace, pcfg profiler.Config, sopts synth.Options) (*Workload, error) {
	p, warps, err := profiler.ProfileKernelWarps(tr, pcfg)
	if err != nil {
		return nil, err
	}
	proxy, err := synth.Generate(p, sopts)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Name:    tr.Name,
		Trace:   tr,
		Warps:   warps,
		Profile: p,
		Proxy:   proxy,
	}, nil
}

// SimulateOriginal runs the original coalesced stream on the hierarchy.
func (w *Workload) SimulateOriginal(cfg memsim.Config) (memsim.Metrics, error) {
	sim, err := memsim.New(w.Warps, cfg)
	if err != nil {
		return memsim.Metrics{}, fmt.Errorf("core: %s original: %w", w.Name, err)
	}
	return sim.Run()
}

// SimulateProxy runs the generated clone on the hierarchy.
func (w *Workload) SimulateProxy(cfg memsim.Config) (memsim.Metrics, error) {
	sim, err := memsim.New(w.Proxy.Warps, cfg)
	if err != nil {
		return memsim.Metrics{}, fmt.Errorf("core: %s proxy: %w", w.Name, err)
	}
	return sim.Run()
}

// Metric extracts one scalar from a simulation run (e.g. L1 miss rate).
type Metric struct {
	Name string
	Fn   func(memsim.Metrics) float64
}

// The metrics the paper validates proxies on.
var (
	// L1MissRate is the Figure 6a/6c/6e metric.
	L1MissRate = Metric{Name: "l1-miss-rate", Fn: func(m memsim.Metrics) float64 { return m.L1MissRate() }}
	// L2MissRate is the Figure 6b/6d metric.
	L2MissRate = Metric{Name: "l2-miss-rate", Fn: func(m memsim.Metrics) float64 { return m.L2MissRate() }}
	// DRAMRowBufferLocality, DRAMQueueLen, DRAMReadLatency and
	// DRAMWriteLatency are the Figure 7 metrics.
	DRAMRowBufferLocality = Metric{Name: "dram-rbl", Fn: func(m memsim.Metrics) float64 { return m.DRAM.RowBufferLocality() }}
	DRAMQueueLen          = Metric{Name: "dram-queue-len", Fn: func(m memsim.Metrics) float64 { return m.DRAM.AvgQueueLen() }}
	DRAMReadLatency       = Metric{Name: "dram-read-lat", Fn: func(m memsim.Metrics) float64 { return m.DRAM.AvgReadLatency() }}
	DRAMWriteLatency      = Metric{Name: "dram-write-lat", Fn: func(m memsim.Metrics) float64 { return m.DRAM.AvgWriteLatency() }}
)

// Comparison holds paired original/proxy measurements of one metric
// across a configuration sweep.
type Comparison struct {
	Benchmark string
	Metric    string
	Labels    []string
	Original  []float64
	Proxy     []float64
}

// Add appends one paired measurement.
func (c *Comparison) Add(label string, original, proxy float64) {
	c.Labels = append(c.Labels, label)
	c.Original = append(c.Original, original)
	c.Proxy = append(c.Proxy, proxy)
}

// Len returns the number of validation points.
func (c *Comparison) Len() int { return len(c.Labels) }

// MeanAbsPctError is the paper's primary accuracy metric: the mean
// absolute percentage error of the proxy against the original.
func (c *Comparison) MeanAbsPctError() float64 {
	e, err := stats.MeanAbsPctError(c.Original, c.Proxy)
	if err != nil {
		return 0
	}
	return e
}

// Correlation is the paper's trend-tracking metric: Pearson's r across
// the sweep. Sweeps where the original is configuration-insensitive (zero
// variance) report 1 when the proxy is also flat (it tracks the trend
// perfectly) and 0 otherwise.
func (c *Comparison) Correlation() float64 {
	r, err := stats.Pearson(c.Original, c.Proxy)
	if err != nil {
		return 0
	}
	if r == 0 && stats.StdDev(c.Original) == 0 && stats.StdDev(c.Proxy) == 0 {
		return 1
	}
	return r
}

// Compare sweeps both streams over configurations and collects the paired
// metric values. Labels must be parallel to configs.
func Compare(w *Workload, configs []memsim.Config, labels []string, metric Metric) (*Comparison, error) {
	if len(configs) != len(labels) {
		return nil, fmt.Errorf("core: %d configs but %d labels", len(configs), len(labels))
	}
	cmp := &Comparison{Benchmark: w.Name, Metric: metric.Name}
	for i, cfg := range configs {
		orig, err := w.SimulateOriginal(cfg)
		if err != nil {
			return nil, err
		}
		prox, err := w.SimulateProxy(cfg)
		if err != nil {
			return nil, err
		}
		cmp.Add(labels[i], metric.Fn(orig), metric.Fn(prox))
	}
	return cmp, nil
}
