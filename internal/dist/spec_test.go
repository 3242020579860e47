package dist

import (
	"reflect"
	"strings"
	"testing"

	"github.com/uteda/gmap/internal/workloads"
)

// TestSweepSpecNormalize pins the one check every sweep's flags pass
// before anything runs — serial gmap-eval, a coordinator and a served
// job alike: bad names and negative numbers fail here, and defaults fill
// in without overriding a factor the user chose.
func TestSweepSpecNormalize(t *testing.T) {
	cases := []struct {
		name    string
		spec    SweepSpec
		wantErr string               // substring of the error; "" = must succeed
		check   func(SweepSpec) bool // on the normalized spec
	}{
		{
			name: "defaults",
			spec: SweepSpec{Experiment: "fig6a"},
			check: func(s SweepSpec) bool {
				return s.Seed == 1 && s.ScaleFactor == 4 && s.Scale == 1 && s.Cores == 0
			},
		},
		{
			name:  "scale factor below one is kept",
			spec:  SweepSpec{Experiment: "fig6a", ScaleFactor: 0.5},
			check: func(s SweepSpec) bool { return s.ScaleFactor == 0.5 },
		},
		{
			name:  "empty benchmarks expand to all",
			spec:  SweepSpec{Experiment: "all"},
			check: func(s SweepSpec) bool { return reflect.DeepEqual(s.Benchmarks, workloads.Names()) },
		},
		{
			name:  "benchmark subset is kept",
			spec:  SweepSpec{Experiment: "fig7", Benchmarks: []string{"nn", "scalarprod"}},
			check: func(s SweepSpec) bool { return reflect.DeepEqual(s.Benchmarks, []string{"nn", "scalarprod"}) },
		},
		{
			name:    "unknown experiment",
			spec:    SweepSpec{Experiment: "fig9"},
			wantErr: `unknown experiment "fig9"`,
		},
		{
			name:    "unknown benchmark",
			spec:    SweepSpec{Experiment: "fig6a", Benchmarks: []string{"nn", "nosuch"}},
			wantErr: `unknown benchmark "nosuch"`,
		},
		{
			name:    "negative scale factor",
			spec:    SweepSpec{Experiment: "fig6a", ScaleFactor: -2},
			wantErr: "scale_factor -2 must be positive",
		},
		{
			name:    "negative cores",
			spec:    SweepSpec{Experiment: "fig6a", Cores: -1},
			wantErr: "cores -1 must be non-negative",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.spec
			err := s.Normalize()
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("Normalize(%+v) = %v, want an error containing %q", c.spec, err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Normalize(%+v): %v", c.spec, err)
			}
			if !c.check(s) {
				t.Errorf("Normalize(%+v) gave %+v", c.spec, s)
			}
		})
	}
}

// TestSweepSpecEvalOptionsCarryIdentity: the eval options a spec denotes
// carry every identity field unchanged, so a factor below one reaches the
// sweep's job keys rather than a default, and reports are always built
// without timings.
func TestSweepSpecEvalOptionsCarryIdentity(t *testing.T) {
	s := SweepSpec{Experiment: "fig6a", Seed: 7, ScaleFactor: 0.5, Scale: 2, Cores: 4, Benchmarks: []string{"nn"}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	o := s.EvalOptions()
	if o.Seed != 7 || o.ScaleFactor != 0.5 || o.Scale != 2 || o.Cores != 4 ||
		!reflect.DeepEqual(o.Benchmarks, []string{"nn"}) || !o.NoTimings {
		t.Fatalf("EvalOptions() = %+v, want the spec's fields and NoTimings", o)
	}
	half, err := o.SweepKeys("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	s.ScaleFactor = 4
	four, err := s.EvalOptions().SweepKeys("fig6a")
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(half, four) {
		t.Error("job keys at scale factor 0.5 equal those at 4")
	}
}
