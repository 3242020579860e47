package eval

import (
	"testing"

	obstrace "github.com/uteda/gmap/internal/obs/trace"
)

// TestJobsTraceTheirSimulations pins that every sweep job hands its span
// to the simulations and clone generations it runs: traced over nn, each
// experiment records one memsim.run per simulation, each a child of a
// runner.job span, and one synth.generate per clone it builds — the
// prepared clone under eval.prepare, every other one under its job.
func TestJobsTraceTheirSimulations(t *testing.T) {
	cases := []struct {
		experiment            string
		jobs, runs, generates int
	}{
		{"fig6a", 30, 60, 1},
		{"fig7", 11, 22, 1},
		{"fig8", 5, 6, 5},
		{"ablation", 210, 210, 7},
	}
	for _, tc := range cases {
		t.Run(tc.experiment, func(t *testing.T) {
			o := quickOpts()
			o.Benchmarks = []string{"nn"}
			o.Trace = obstrace.New()
			if err := o.RunSweeps(tc.experiment); err != nil {
				t.Fatal(err)
			}
			events := o.Trace.Events()
			byID := make(map[uint64]obstrace.Event, len(events))
			for _, e := range events {
				byID[e.ID] = e
			}
			count := make(map[string]int)
			for _, e := range events {
				count[e.Name]++
				parent := byID[e.Parent].Name
				switch {
				case e.Name == "memsim.run" && parent != "runner.job":
					t.Errorf("memsim.run span has parent %q, want runner.job", parent)
				case e.Name == "synth.generate" && parent != "runner.job" && parent != "eval.prepare":
					t.Errorf("synth.generate span has parent %q, want runner.job or eval.prepare", parent)
				}
			}
			if count["runner.job"] != tc.jobs || count["memsim.run"] != tc.runs || count["synth.generate"] != tc.generates {
				t.Errorf("runner.job / memsim.run / synth.generate = %d / %d / %d, want %d / %d / %d",
					count["runner.job"], count["memsim.run"], count["synth.generate"], tc.jobs, tc.runs, tc.generates)
			}
		})
	}
}
