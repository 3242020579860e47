// Package gmap is an open reimplementation of G-MAP, the GPU Memory
// Access Proxy framework of Panda et al. (DAC 2017, "Statistical Pattern
// Based Modeling of GPU Memory Access Streams").
//
// G-MAP reduces a GPGPU application's memory reference stream to a
// compact statistical profile — dominant dynamic memory execution paths
// (π profiles), per-instruction inter-thread and intra-thread stride
// distributions, reuse-distance distributions and base addresses — and
// regenerates from it a miniaturized synthetic "proxy" (clone) whose
// cache, prefetcher and DRAM behaviour closely tracks the original across
// memory-hierarchy design spaces, while hiding the original addresses and
// shrinking trace volume several-fold.
//
// The typical flow is three calls:
//
//	tr, _ := gmap.BenchmarkTrace("kmeans", 1)           // or your own trace
//	profile, _ := gmap.ProfileTrace(tr, gmap.DefaultProfileConfig())
//	proxy, _ := gmap.Generate(profile, gmap.GenerateOptions{Seed: 1, ScaleFactor: 4})
//
//	orig, _ := gmap.SimulateTrace(tr, gmap.DefaultSimConfig())
//	clone, _ := gmap.SimulateProxy(proxy, gmap.DefaultSimConfig())
//	fmt.Printf("L1 miss rate: %.3f vs %.3f\n", orig.L1MissRate(), clone.L1MissRate())
//
// The package also exposes the paper's full evaluation harness (see
// Experiments) and the 18 synthetic GPGPU benchmarks the evaluation runs
// on. Everything is deterministic under a fixed seed and uses only the
// standard library.
package gmap

import (
	"context"
	"fmt"
	"io"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/serve"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// Re-exported data types. These aliases are the public API; the internal
// packages they point at carry the implementations.
type (
	// KernelTrace is a per-thread memory reference stream plus launch
	// geometry — G-MAP's input.
	KernelTrace = trace.KernelTrace
	// ThreadTrace is one thread's ordered reference stream.
	ThreadTrace = trace.ThreadTrace
	// Access is one dynamic memory reference (PC, address, load/store).
	Access = trace.Access
	// Request is one coalesced warp-level cacheline transaction.
	Request = trace.Request
	// WarpTrace is a warp's ordered transaction stream.
	WarpTrace = trace.WarpTrace

	// Profile is the statistical profile (Π, Q, B, P_S, P_R) of §4.6.
	Profile = profiler.Profile
	// ProfileConfig controls profiling (line size, clustering threshold
	// Th, profile cap M).
	ProfileConfig = profiler.Config
	// Proxy is a generated clone: synthetic warp streams plus geometry.
	Proxy = synth.Proxy
	// GenerateOptions controls clone generation (seed, miniaturization
	// scale factor, obfuscation).
	GenerateOptions = synth.Options

	// SimConfig describes the simulated memory hierarchy (cores, L1, L2,
	// MSHRs, prefetchers, DRAM, warp scheduler).
	SimConfig = memsim.Config
	// Metrics is one simulation's result set.
	Metrics = memsim.Metrics

	// Workload bundles the coalesced original, profile and proxy for
	// side-by-side evaluation; AppWorkload is its multi-kernel
	// counterpart.
	Workload    = core.Workload
	AppWorkload = core.AppWorkload

	// Application is a multi-kernel launch sequence (the paper's Figure
	// 1b program model); AppProfile and AppProxy are its statistical
	// profile and generated clone.
	Application = trace.Application
	AppProfile  = profiler.AppProfile
	AppProxy    = synth.AppProxy
	// Comparison holds paired original/proxy measurements over a sweep.
	Comparison = core.Comparison

	// ExperimentOptions parameterizes the paper-evaluation harness,
	// including the execution engine's Workers (parallel simulation
	// jobs; parallel runs are bit-identical to serial ones), Checkpoint
	// and Resume (restartable sweeps via a JSONL point log) and Context
	// (cancellation) knobs.
	ExperimentOptions = eval.Options

	// ObsRegistry is the observability metrics registry: live counters,
	// gauges, bounded histograms and cycle-keyed time-series samplers
	// that the pipeline reports into when one is attached (via
	// SimConfig.Obs, ExperimentOptions.Obs, ProfileConfig.Obs or
	// GenerateOptions.Obs). A nil registry disables all instrumentation
	// at the cost of one predictable branch per hook; attaching one
	// never changes any result.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time JSON-marshalable copy of an
	// ObsRegistry's contents.
	ObsSnapshot = obs.Snapshot

	// Tracer records hierarchical spans of a pipeline run (sweep → job →
	// phase → simulation epoch) and exports them as Chrome trace-event
	// JSON (Perfetto-loadable) or a JSONL event stream. Like ObsRegistry,
	// a nil tracer disables span recording and attaching one never
	// changes any result.
	Tracer = obstrace.Tracer
	// TraceSpan is one recorded span; nil spans no-op all methods.
	TraceSpan = obstrace.Span

	// ServeOptions configures the live observability HTTP server: the
	// bind address plus the registry, tracer and progress snapshot it
	// exposes read-only on /metrics, /trace and /progress.
	ServeOptions = serve.Options
	// ObsServer is a running observability exposition server.
	ObsServer = serve.Server

	// AttrOptions enables per-π / per-PC accuracy attribution for
	// benchmarks whose figure error exceeds a threshold; AttrReport is
	// one benchmark's ranked drill-down.
	AttrOptions = eval.AttrOptions
	AttrReport  = eval.AttrReport
)

// NewObsRegistry returns an enabled observability registry ready to be
// attached to the pipeline.
func NewObsRegistry() *ObsRegistry { return obs.New() }

// NewTracer returns an enabled span tracer ready to be attached to the
// pipeline (via ExperimentOptions.Trace or SimConfig.TraceSpan roots).
func NewTracer() *Tracer { return obstrace.New() }

// StartObsServer binds and serves the observability endpoints until the
// context is cancelled or Shutdown is called.
func StartObsServer(ctx context.Context, o ServeOptions) (*ObsServer, error) {
	return serve.Start(ctx, o)
}

// WriteAttrJSON and WriteAttrMarkdown render accuracy-attribution
// reports (AttrOptions.Reports) as JSON or a markdown drill-down.
func WriteAttrJSON(w io.Writer, reports []*AttrReport) error { return eval.WriteAttrJSON(w, reports) }

func WriteAttrMarkdown(w io.Writer, reports []*AttrReport) error {
	return eval.WriteAttrMarkdown(w, reports)
}

// Load/store kinds.
const (
	Load  = trace.Load
	Store = trace.Store
)

// Warp scheduling policies for SimConfig.Scheduler.
const (
	LRR   = memsim.LRR
	GTO   = memsim.GTO
	PSelf = memsim.PSelf
)

// DefaultProfileConfig returns the paper's profiling settings (128B
// coalescing, clustering threshold 0.9, at most 8 dominant π profiles).
func DefaultProfileConfig() ProfileConfig { return profiler.DefaultConfig() }

// DefaultGenerateOptions returns the paper's proxy settings (scale ~4x).
func DefaultGenerateOptions() GenerateOptions { return synth.DefaultOptions() }

// DefaultSimConfig returns the Table 2 profiled system configuration.
func DefaultSimConfig() SimConfig { return memsim.DefaultConfig() }

// ProfileTrace profiles a kernel's reference stream (phases ①/② of the
// framework): coalescing, π-profile extraction and clustering, stride and
// reuse capture.
func ProfileTrace(tr *KernelTrace, cfg ProfileConfig) (*Profile, error) {
	return profiler.ProfileKernel(tr, cfg)
}

// Generate expands a profile into a proxy (phase ③, Algorithms 1 and 2).
func Generate(p *Profile, opts GenerateOptions) (*Proxy, error) {
	return synth.Generate(p, opts)
}

// Coalesce converts a per-thread trace into warp-level transaction
// streams using the Fermi coalescing rules. lineSize must be a power of
// two, or 0 for the 128B default; any other size merges lanes into
// misaligned segments without an error.
func Coalesce(tr *KernelTrace, lineSize uint64) []WarpTrace {
	return gpu.NewCoalescer(lineSize).BuildWarpTraces(tr)
}

// SimulateTrace runs an original per-thread trace through the memory
// hierarchy (coalescing it first with the L1 line size).
func SimulateTrace(tr *KernelTrace, cfg SimConfig) (Metrics, error) {
	warps := gpu.NewCoalescer(uint64(cfg.L1.LineSize)).BuildWarpTraces(tr)
	return SimulateWarps(warps, cfg)
}

// SimulateWarps runs coalesced warp streams through the memory hierarchy.
func SimulateWarps(warps []WarpTrace, cfg SimConfig) (Metrics, error) {
	sim, err := memsim.New(warps, cfg)
	if err != nil {
		return Metrics{}, err
	}
	return sim.Run()
}

// SimulateProxy runs a generated clone through the memory hierarchy.
func SimulateProxy(p *Proxy, cfg SimConfig) (Metrics, error) {
	return SimulateWarps(p.Warps, cfg)
}

// Prepare runs the complete pipeline for a named built-in benchmark,
// emulating the kernel one warp at a time straight into the coalescer.
func Prepare(benchmark string, scale int, pcfg ProfileConfig, gopts GenerateOptions) (*Workload, error) {
	return core.Prepare(benchmark, scale, pcfg, gopts)
}

// PrepareTrace runs the complete pipeline over a caller-supplied trace.
func PrepareTrace(tr *KernelTrace, pcfg ProfileConfig, gopts GenerateOptions) (*Workload, error) {
	return core.PrepareTrace(tr, pcfg, gopts)
}

// Benchmarks returns the names of the 18 built-in synthetic GPGPU
// benchmarks modeled on Rodinia, the CUDA SDK and ISPASS-2009.
func Benchmarks() []string { return workloads.Names() }

// PrepareApp runs the pipeline over a benchmark's full multi-kernel launch
// sequence: iterative and multi-phase benchmarks (kmeans, bp, srad) expose
// several launches; the rest launch once.
func PrepareApp(benchmark string, scale int, pcfg ProfileConfig, gopts GenerateOptions) (*AppWorkload, error) {
	return core.PrepareApp(benchmark, scale, pcfg, gopts)
}

// ProfileApp profiles an application's launch sequence into a compact
// per-kernel profile set.
func ProfileApp(app *Application, cfg ProfileConfig) (*AppProfile, error) {
	return profiler.ProfileApplication(app, cfg)
}

// GenerateApp expands an application profile into a launch-sequence clone.
func GenerateApp(ap *AppProfile, opts GenerateOptions) (*AppProxy, error) {
	return synth.GenerateApp(ap, opts)
}

// SimulateLaunches runs a sequence of kernel launches back to back with
// cache and DRAM state persisting across them.
func SimulateLaunches(launches [][]WarpTrace, cfg SimConfig) (Metrics, error) {
	sim, err := memsim.NewSequence(launches, cfg)
	if err != nil {
		return Metrics{}, err
	}
	return sim.Run()
}

// BenchmarkTrace emulates a built-in benchmark at the given scale
// (1 = default evaluation size) and returns its reference stream.
func BenchmarkTrace(name string, scale int) (*KernelTrace, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("gmap: unknown benchmark %q (have %v)", name, workloads.Names())
	}
	return spec.Trace(scale)
}

// WriteTrace and ReadTrace persist per-thread traces in the compact
// delta-encoded binary format.
func WriteTrace(w io.Writer, tr *KernelTrace) error { return trace.WriteBinary(w, tr) }

// ReadTrace decodes a trace written by WriteTrace.
func ReadTrace(r io.Reader) (*KernelTrace, error) { return trace.ReadBinary(r) }

// WriteProfile and ReadProfile persist profiles as JSON.
func WriteProfile(w io.Writer, p *Profile) error { return p.WriteJSON(w) }

// ReadProfile decodes and validates a profile written by WriteProfile.
func ReadProfile(r io.Reader) (*Profile, error) { return profiler.ReadJSON(r) }

// WriteProxy persists a generated clone's warp streams.
func WriteProxy(w io.Writer, p *Proxy) error {
	return trace.WriteWarpsBinary(w, &trace.WarpFile{
		Name:     p.Name,
		GridDim:  p.GridDim,
		BlockDim: p.BlockDim,
		Warps:    p.Warps,
	})
}

// ReadProxy decodes a clone written by WriteProxy.
func ReadProxy(r io.Reader) (*Proxy, error) {
	wf, err := trace.ReadWarpsBinary(r)
	if err != nil {
		return nil, err
	}
	p := &Proxy{Name: wf.Name, GridDim: wf.GridDim, BlockDim: wf.BlockDim, Warps: wf.Warps}
	for i := range p.Warps {
		p.Requests += len(p.Warps[i].Requests)
	}
	return p, nil
}

// Experiments runs one of the paper's experiments by id ("table1",
// "table2", "fig6a".."fig6e", "fig7", "fig8", or "all") and writes the
// report to w. Sweeps execute on the parallel engine per opts.Workers;
// execution statistics accumulate into opts (see
// ExperimentOptions.ExecStats), which is why it is passed by pointer.
func Experiments(w io.Writer, id string, opts *ExperimentOptions) error {
	return opts.Run(w, id)
}
