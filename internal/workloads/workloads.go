// Package workloads provides the 18 synthetic GPGPU benchmarks used to
// evaluate G-MAP. Each workload is a declarative kernelsim kernel whose
// launch geometry, static memory instructions, stride structure, reuse
// behaviour and control divergence are modeled on the corresponding
// benchmark from Rodinia, the NVIDIA CUDA SDK and the GPGPU-sim
// ISPASS-2009 suite, following the per-benchmark characteristics the paper
// documents (Table 1 and §5). They stand in for the original CUDA binaries,
// which G-MAP only ever observes through their memory reference streams.
package workloads

import (
	"fmt"
	"sort"

	"github.com/uteda/gmap/internal/kernelsim"
	"github.com/uteda/gmap/internal/trace"
)

// ReuseLevel classifies a workload's temporal locality the way Table 1
// does: Low is <30% reuse, Med is 30-70%, High is >70%.
type ReuseLevel int

// Reuse levels in increasing order of temporal locality.
const (
	LowReuse ReuseLevel = iota
	MedReuse
	HighReuse
)

// String returns "low", "med" or "high".
func (r ReuseLevel) String() string {
	switch r {
	case MedReuse:
		return "med"
	case HighReuse:
		return "high"
	default:
		return "low"
	}
}

// Spec describes one synthetic benchmark.
type Spec struct {
	// Name is the short benchmark name used throughout the evaluation
	// (matches the paper's figures: aes, bfs, bp, blk, cp, ...).
	Name string
	// Suite records the provenance of the modeled benchmark.
	Suite string
	// Description summarizes what the original computes and which access
	// pattern the synthetic version reproduces.
	Description string
	// Reuse is the expected temporal-locality class (Table 1).
	Reuse ReuseLevel
	// Regular indicates dominantly strided (true) versus irregular/
	// data-dependent (false) addressing; irregular workloads are the ones
	// the paper reports as hardest to clone.
	Regular bool
	// Build constructs the kernel at a given scale. Scale 1 is the default
	// evaluation size; larger scales lengthen per-thread work (more loop
	// iterations), which is how the miniaturization experiment varies
	// original trace length.
	Build func(scale int) *kernelsim.Kernel
	// App, when non-nil, constructs the benchmark's multi-kernel launch
	// sequence (Figure 1b of the paper: an application is a sequence of
	// kernels). Nil means a single launch of Build.
	App func(scale int) []*kernelsim.Kernel
}

// Kernel builds the workload's kernel at the given scale; a scale below
// 1 selects 1.
func (s Spec) Kernel(scale int) *kernelsim.Kernel {
	if scale < 1 {
		scale = 1
	}
	return s.Build(scale)
}

// Kernels builds the benchmark's launch sequence at the given scale: App's
// kernels, or Build's one kernel when App is nil.
func (s Spec) Kernels(scale int) []*kernelsim.Kernel {
	if scale < 1 {
		scale = 1
	}
	if s.App != nil {
		return s.App(scale)
	}
	return []*kernelsim.Kernel{s.Build(scale)}
}

// Trace emulates the workload at the given scale and returns its
// per-thread reference streams.
func (s Spec) Trace(scale int) (*trace.KernelTrace, error) {
	t, err := s.Kernel(scale).Emulate()
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", s.Name, err)
	}
	return t, nil
}

// AppTrace emulates the benchmark's full launch sequence.
func (s Spec) AppTrace(scale int) (*trace.Application, error) {
	app := &trace.Application{Name: s.Name}
	for i, k := range s.Kernels(scale) {
		t, err := k.Emulate()
		if err != nil {
			return nil, fmt.Errorf("workloads: %s launch %d: %w", s.Name, i, err)
		}
		app.Launches = append(app.Launches, t)
	}
	return app, nil
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workloads: duplicate benchmark " + s.Name)
	}
	registry[s.Name] = s
}

// All returns every benchmark spec sorted by name.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted benchmark names.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// ByName looks up a benchmark spec.
func ByName(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Table1Set returns the 10 benchmarks whose access patterns Table 1 of the
// paper characterizes, in the table's row order.
func Table1Set() []Spec {
	names := []string{"heartwall", "bp", "kmeans", "srad", "scalarprod", "cp", "blk", "lud", "lib", "fwt"}
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, ok := registry[n]
		if !ok {
			panic("workloads: Table1 benchmark missing: " + n)
		}
		out = append(out, s)
	}
	return out
}
