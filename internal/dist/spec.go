package dist

import (
	"fmt"

	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/workloads"
)

// SweepSpec is the shape of one evaluation sweep. It travels verbatim
// inside every lease grant, so each worker derives the coordinator's
// exact eval options — and therefore its exact job keys. The serving
// layer's api.JobSpec embeds it, so a served job's wire JSON lists
// these fields in place.
type SweepSpec struct {
	// Seed drives generation; 0 defaults to 1.
	Seed uint64 `json:"seed,omitempty"`
	// ScaleFactor is the miniaturization factor; 0 defaults to 4.
	ScaleFactor float64 `json:"scale_factor,omitempty"`
	// Scale is the workload scale for sweeps; 0 defaults to 1.
	Scale int `json:"scale,omitempty"`
	// Cores overrides the simulated SM count (0 = Table 2's 15).
	Cores int `json:"cores,omitempty"`
	// Experiment is the paper experiment id ("fig6a", ..., "all").
	Experiment string `json:"experiment,omitempty"`
	// Benchmarks restricts a sweep to a benchmark subset; empty means
	// all 18 (normalized to the explicit full list, so "default" and
	// "explicitly everything" share a cache entry).
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// FillDefaults fills the seed, scale factor and scale defaults in place
// and range-checks the numeric fields.
func (s *SweepSpec) FillDefaults() error {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.ScaleFactor == 0 {
		s.ScaleFactor = 4
	}
	if s.ScaleFactor < 0 {
		return fmt.Errorf("scale_factor %v must be positive", s.ScaleFactor)
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.Cores < 0 {
		return fmt.Errorf("cores %d must be non-negative", s.Cores)
	}
	return nil
}

// Normalize fills defaults, checks the experiment id and benchmark
// names, and expands an empty benchmark list to every builtin benchmark.
func (s *SweepSpec) Normalize() error {
	if err := s.FillDefaults(); err != nil {
		return err
	}
	ok := s.Experiment == "all"
	for _, id := range eval.ExperimentIDs() {
		if s.Experiment == id {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("unknown experiment %q (have %v and \"all\")", s.Experiment, eval.ExperimentIDs())
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = workloads.Names()
	}
	for _, b := range s.Benchmarks {
		if _, known := workloads.ByName(b); !known {
			return fmt.Errorf("unknown benchmark %q (have %v)", b, workloads.Names())
		}
	}
	return nil
}

// EvalOptions builds the evaluation options a normalized spec denotes.
// Every path that runs or enumerates a sweep — the coordinator's key
// enumeration and merge replay, and every worker's shard execution —
// derives its options here, so they can never disagree about job
// identity (eval's jobKey covers exactly these fields) or about report
// determinism (NoTimings is forced: cached and merged reports must be
// byte-identical across executions). Execution-only knobs (workers,
// checkpoint, ...) are layered on by the caller and never change
// identity.
func (s *SweepSpec) EvalOptions() eval.Options {
	return eval.Options{
		Benchmarks:  s.Benchmarks,
		Scale:       s.Scale,
		ScaleFactor: s.ScaleFactor,
		Seed:        s.Seed,
		Cores:       s.Cores,
		NoTimings:   true,
	}
}
