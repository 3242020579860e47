package core

import (
	"fmt"

	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/trace"
	"github.com/uteda/gmap/internal/workloads"
)

// AppWorkload bundles a multi-kernel application's coalesced launches,
// its profile and its clone for side-by-side simulation with persistent
// cache/DRAM state across kernel launches.
type AppWorkload struct {
	Name string
	// Launches holds the coalesced original streams, one per launch.
	Launches [][]trace.WarpTrace
	// Profile is the application profile (one entry per distinct kernel).
	Profile *profiler.AppProfile
	// Proxy is the generated launch-sequence clone.
	Proxy *synth.AppProxy
}

// PrepareApp runs the application pipeline for a named benchmark: emulate
// its launch sequence, each launch a warp at a time straight into the
// coalescer, profile it, and generate the clone.
func PrepareApp(name string, scale int, pcfg profiler.Config, sopts synth.Options) (*AppWorkload, error) {
	spec, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown benchmark %q (have %v)", name, workloads.Names())
	}
	kernels := spec.Kernels(scale)
	launches := make([]profiler.Source, len(kernels))
	for i, k := range kernels {
		launches[i] = KernelSource(k)
	}
	return prepareAppSources(name, launches, pcfg, sopts)
}

// PrepareAppTrace runs the pipeline over an externally supplied
// application trace, coalescing each launch once.
func PrepareAppTrace(app *trace.Application, pcfg profiler.Config, sopts synth.Options) (*AppWorkload, error) {
	launches := make([]profiler.Source, len(app.Launches))
	for i, k := range app.Launches {
		launches[i] = profiler.TraceSource(k)
	}
	return prepareAppSources(app.Name, launches, pcfg, sopts)
}

// prepareAppSources profiles the launches, whose warps become Launches, and
// generates the clone.
func prepareAppSources(name string, launches []profiler.Source, pcfg profiler.Config, sopts synth.Options) (*AppWorkload, error) {
	prof, warps, err := profiler.ProfileAppSources(name, launches, pcfg)
	if err != nil {
		return nil, err
	}
	proxy, err := synth.GenerateApp(prof, sopts)
	if err != nil {
		return nil, err
	}
	return &AppWorkload{
		Name:     name,
		Launches: warps,
		Profile:  prof,
		Proxy:    proxy,
	}, nil
}

// SimulateOriginal runs the original launch sequence on the hierarchy.
func (w *AppWorkload) SimulateOriginal(cfg memsim.Config) (memsim.Metrics, error) {
	sim, err := memsim.NewSequence(w.Launches, cfg)
	if err != nil {
		return memsim.Metrics{}, fmt.Errorf("core: %s original app: %w", w.Name, err)
	}
	return sim.Run()
}

// SimulateProxy runs the clone's launch sequence on the hierarchy.
func (w *AppWorkload) SimulateProxy(cfg memsim.Config) (memsim.Metrics, error) {
	sim, err := memsim.NewSequence(w.Proxy.WarpLaunches(), cfg)
	if err != nil {
		return memsim.Metrics{}, fmt.Errorf("core: %s proxy app: %w", w.Name, err)
	}
	return sim.Run()
}
