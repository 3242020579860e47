package profiler

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/uteda/gmap/internal/trace"
)

// AppProfile is the statistical profile of a whole application: one
// kernel profile per distinct static kernel, plus the launch sequence
// referencing them. Re-launches of the same kernel share a profile
// captured from all of their executions, which keeps the profile size
// independent of iteration count — the paper's "profiling is a one-time
// cost ... independent of the execution length".
type AppProfile struct {
	Name string `json:"name"`
	// Kernels holds one profile per distinct kernel name.
	Kernels []*Profile `json:"kernels"`
	// Launches is the execution order as indices into Kernels.
	Launches []int `json:"launches"`
}

// Validate checks structural consistency.
func (a *AppProfile) Validate() error {
	if len(a.Kernels) == 0 || len(a.Launches) == 0 {
		return fmt.Errorf("profiler: app profile %q empty", a.Name)
	}
	for _, li := range a.Launches {
		if li < 0 || li >= len(a.Kernels) {
			return fmt.Errorf("profiler: app profile %q: launch references kernel %d of %d",
				a.Name, li, len(a.Kernels))
		}
	}
	for i, k := range a.Kernels {
		if k == nil {
			// JSON "null" in the kernels array decodes to a nil pointer.
			return fmt.Errorf("profiler: app profile %q kernel %d is null", a.Name, i)
		}
		if err := k.Validate(); err != nil {
			return fmt.Errorf("profiler: app profile %q kernel %d: %w", a.Name, i, err)
		}
	}
	return nil
}

// ProfileApplication profiles every launch of an application trace; see
// ProfileAppSources.
func ProfileApplication(app *trace.Application, cfg Config) (*AppProfile, error) {
	launches := make([]Source, len(app.Launches))
	for i, k := range app.Launches {
		launches[i] = TraceSource(k)
	}
	p, _, err := ProfileAppSources(app.Name, launches, cfg)
	return p, err
}

// ProfileAppSources profiles an application's launch sequence, coalescing
// each launch once. Launches of the same kernel (by name) are merged into
// one profile by profiling their warp streams together, so iterative
// applications stay compact. It also returns each launch's warps, with
// the warp ids BuildWarpTraces gives them, for the caller to simulate.
func ProfileAppSources(name string, launches []Source, cfg Config) (*AppProfile, [][]trace.WarpTrace, error) {
	cfg.fillDefaults()
	if err := cfg.checkLineSize(); err != nil {
		return nil, nil, err
	}
	warps := make([][]trace.WarpTrace, len(launches))
	for i, src := range launches {
		w, err := cfg.warps(src)
		if err != nil {
			return nil, nil, fmt.Errorf("profiler: application %q launch %d: %w", name, i, err)
		}
		warps[i] = w
	}
	out := &AppProfile{Name: name}
	kernelIdx := make(map[string]int)
	// Group launches by kernel name, preserving the first launch's
	// geometry (re-launches share the static kernel and therefore its
	// geometry in our model).
	groups := make(map[string][]int)
	var order []string
	for i, src := range launches {
		if _, ok := groups[src.Name]; !ok {
			order = append(order, src.Name)
		}
		groups[src.Name] = append(groups[src.Name], i)
	}
	for _, kname := range order {
		g := groups[kname]
		first := launches[g[0]]
		for li, i := range g {
			if launches[i].GridDim != first.GridDim || launches[i].BlockDim != first.BlockDim {
				return nil, nil, fmt.Errorf("profiler: app %q kernel %q launch %d changes geometry", name, kname, li)
			}
		}
		// Concatenate the launches' warp streams: warp w of launch i is
		// profiled as its own warp, so the per-warp statistics of every
		// launch merge naturally. The renumbered ids go on copies of the
		// warp headers; the request slices are shared.
		var allWarps []trace.WarpTrace
		for _, i := range g {
			for _, w := range warps[i] {
				w.WarpID = len(allWarps)
				allWarps = append(allWarps, w)
			}
		}
		p, err := ProfileWarps(kname, first.GridDim, first.BlockDim, allWarps, cfg)
		if err != nil {
			return nil, nil, err
		}
		// The merged warp population spans every launch; generation must
		// regenerate ONE launch's worth of warps.
		p.Warps = len(allWarps) / len(g)
		kernelIdx[kname] = len(out.Kernels)
		out.Kernels = append(out.Kernels, p)
	}
	for _, src := range launches {
		out.Launches = append(out.Launches, kernelIdx[src.Name])
	}
	if err := out.Validate(); err != nil {
		return nil, nil, err
	}
	return out, warps, nil
}

// WriteJSON serializes the application profile.
func (a *AppProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// ReadAppJSON deserializes and validates an application profile.
func ReadAppJSON(r io.Reader) (*AppProfile, error) {
	var a AppProfile
	if err := decodeJSON(r, "app profile", &a); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}
