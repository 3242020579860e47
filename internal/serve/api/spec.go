package api

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/uteda/gmap/internal/dist"
	"github.com/uteda/gmap/internal/runner"
	"github.com/uteda/gmap/internal/serve/store"
)

// JobSpec is the wire form of one evaluation request. Every field that
// shapes the result participates in the config hash, so two submissions
// asking for the same computation — however formatted — map onto the
// same job id and the same cached result. The embedded sweep shape
// (seed through benchmarks) marshals in place, between profile and
// obfuscate.
type JobSpec struct {
	// Kind selects the computation: "clone" (generate a proxy from a
	// stored profile), "sim" (generate and run the proxy through the
	// memory hierarchy) or "sweep" (regenerate a paper experiment over
	// the builtin benchmarks).
	Kind string `json:"kind"`
	// Profile is the content hash of a stored profile (clone and sim).
	Profile string `json:"profile,omitempty"`
	// SweepSpec carries the seed, scale factor, scale and cores of every
	// kind, and the experiment and benchmarks of sweeps.
	dist.SweepSpec
	// Obfuscate replaces base addresses in generated clones.
	Obfuscate bool `json:"obfuscate,omitempty"`
}

// Job kinds.
const (
	KindClone = "clone"
	KindSim   = "sim"
	KindSweep = "sweep"
)

// Normalize validates a submitted spec against the store and fills
// defaults in place, returning an error suitable for a 400 response.
func (spec *JobSpec) Normalize(st *store.Store) error {
	spec.Kind = strings.ToLower(strings.TrimSpace(spec.Kind))
	if err := spec.FillDefaults(); err != nil {
		return err
	}
	switch spec.Kind {
	case KindClone, KindSim:
		if spec.Experiment != "" || len(spec.Benchmarks) != 0 {
			return fmt.Errorf("%s jobs take a profile, not experiment/benchmarks", spec.Kind)
		}
		if spec.Profile == "" {
			return fmt.Errorf("%s jobs require a profile hash (POST /v1/profiles first)", spec.Kind)
		}
		if !st.HasProfile(spec.Profile) {
			return fmt.Errorf("unknown profile %q (POST /v1/profiles first)", spec.Profile)
		}
	case KindSweep:
		if spec.Profile != "" {
			return fmt.Errorf("sweep jobs run the builtin benchmarks; profile is not accepted")
		}
		return spec.SweepSpec.Normalize()
	case "":
		return fmt.Errorf("missing job kind (one of clone, sim, sweep)")
	default:
		return fmt.Errorf("unknown job kind %q (one of clone, sim, sweep)", spec.Kind)
	}
	return nil
}

// hashes derives the result-cache coordinates of a normalized spec: WHAT
// is evaluated (the submitted profile, or the builtin benchmark
// selection) × HOW it is evaluated (every other spec field). The job id
// is a stable digest of both, so identical submissions collide onto one
// job and one cached result.
func (spec *JobSpec) hashes() (profileHash, configHash, jobID string, err error) {
	switch spec.Kind {
	case KindSweep:
		src := struct {
			Builtin []string `json:"builtin"`
		}{Builtin: append([]string(nil), spec.Benchmarks...)}
		data, merr := json.Marshal(src)
		if merr != nil {
			return "", "", "", merr
		}
		profileHash = store.HashBytes(data)
	default:
		profileHash = spec.Profile
	}
	cfg := *spec
	cfg.Profile = "" // the profile is the other cache axis
	data, merr := json.Marshal(cfg)
	if merr != nil {
		return "", "", "", merr
	}
	configHash = store.HashBytes(data)
	return profileHash, configHash, runner.JobKey(profileHash, configHash), nil
}

// jobEnvelope is the journaled form of an admitted job: everything a
// restarted server needs to re-enqueue it.
type jobEnvelope struct {
	Spec        JobSpec `json:"spec"`
	Tenant      string  `json:"tenant"`
	ProfileHash string  `json:"profile_hash"`
	ConfigHash  string  `json:"config_hash"`
}

// sortedIDs returns journal ids in stable order so recovery enqueues
// deterministically.
func sortedIDs(m map[string]json.RawMessage) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
