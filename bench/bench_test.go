package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/eval"
)

// small is the narrowed benchmark set of the self-test: the cheapest
// Fig 6a benchmarks whose clones have a non-zero error and a correlation
// below 1, so that agreement is not met trivially.
var small = []string{"heartwall", "lib", "nw"}

// TestRunsAgree runs the traced run of fig6a-l1 on a narrowed benchmark
// set, then the untraced run. The traced run checks internally that its
// serial pass, which calls each layer itself and sends every artifact
// through the codecs, reproduces eval.Options.Fig6a run with one worker:
// every point's original and clone values, the figure error and the
// correlation. The untraced run uses two workers and must give the same
// digests and accuracy. Both must report exactly the metrics
// BENCHMARK.json declares.
func TestRunsAgree(t *testing.T) {
	w := findWorkload("fig6a-l1")
	traced, err := measureTraced(w, opts{benchmarks: small, seed: 1, workers: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "traced run", traced.metrics, perLayer)
	if got, want := traced.metrics["runner.jobs"], float64(30*len(small)); got != want {
		t.Errorf("runner.jobs %v, want %v", got, want)
	}

	untraced, err := measure(w, opts{benchmarks: small, seed: 1, workers: 2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "untraced run", untraced.metrics, endToEnd)
	if err := agree(traced.out, untraced.out); err != nil {
		t.Fatalf("1 worker vs 2 workers: %v", err)
	}
	if e := untraced.metrics["err_pp"]; e <= 0 {
		t.Errorf("err_pp %v: the narrowed set should have a non-zero clone error", e)
	}

	// The untraced run calls eval once per benchmark; one call over the
	// whole set must give the same figure.
	eo := eval.DefaultOptions()
	eo.Benchmarks, eo.Workers, eo.Seed = small, 2, 1
	fig, err := eo.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	want := []detail{{"fig6a_err_pp", "pp", fig.AvgError}, {"fig6a_corr", "r", fig.AvgCorrelation}}
	if !slices.Equal(untraced.out.details, want) {
		t.Errorf("per-benchmark calls give %v, one eval.Options.Fig6a call %v", untraced.out.details, want)
	}
	for _, d := range untraced.out.details {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("accuracy figure %q with unit %q is not well formed", d.name, d.unit)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricsMatchBenchmarkJSON checks that BENCHMARK.json declares the
// harness's workloads and metrics, in order and with the same units, and
// that every metric name is well formed and carries a unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(suite) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(suite))
	}
	for i, w := range spec.Workloads {
		if w.Name != suite[i].name || w.Why != suite[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)", i, w.Name, w.Why, suite[i].name, suite[i].why)
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	sameDefs(t, "end_to_end", e2e, endToEnd)
	sameDefs(t, "per_layer", layer, perLayer)
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s %d: BENCHMARK.json %+v, harness %+v", what, i, got[i], want[i])
		}
		if !nameRE.MatchString(want[i].name) || !unitRE.MatchString(want[i].unit) {
			t.Errorf("%s: metric %q with unit %q is not well formed", what, want[i].name, want[i].unit)
		}
	}
}

func sameKeys(t *testing.T, what string, got map[string]float64, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s reported %d metrics, want %d", what, len(got), len(want))
	}
	for _, d := range want {
		if _, ok := got[d.name]; !ok {
			t.Errorf("%s did not report %s", what, d.name)
		}
	}
}
