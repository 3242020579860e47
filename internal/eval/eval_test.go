package eval

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/memsim"
)

// quickOpts keeps test runtime low: two cheap benchmarks, 4 cores.
func quickOpts() Options {
	return Options{
		Benchmarks:  []string{"nn", "scalarprod"},
		Scale:       1,
		ScaleFactor: 4,
		Seed:        1,
		Cores:       4,
	}
}

func TestSweepSizesMatchPaper(t *testing.T) {
	if n := len(L1Sweep(0)); n != 30 {
		t.Errorf("L1 sweep has %d configs, want 30", n)
	}
	if n := len(L2Sweep(0)); n != 30 {
		t.Errorf("L2 sweep has %d configs, want 30", n)
	}
	if n := len(L1PrefetchSweep(0)); n != 72 {
		t.Errorf("L1 prefetch sweep has %d configs, want 72", n)
	}
	if n := len(L2PrefetchSweep(0)); n != 96 {
		t.Errorf("L2 prefetch sweep has %d configs, want 96", n)
	}
	if n := len(DRAMSweep(0)); n != 11 {
		t.Errorf("DRAM sweep has %d configs, want 11", n)
	}
	if n := len(SchedulerSweep(0, memsim.GTO)); n != 30 {
		t.Errorf("scheduler sweep has %d configs, want 30", n)
	}
}

func TestSweepConfigsConstructible(t *testing.T) {
	sweeps := [][]ConfigGen{
		L1Sweep(4), L2Sweep(4), L1PrefetchSweep(4), L2PrefetchSweep(4),
		DRAMSweep(4), SchedulerSweep(4, memsim.PSelf),
	}
	for si, sweep := range sweeps {
		for _, g := range sweep {
			cfg, err := g.Make()
			if err != nil {
				t.Fatalf("sweep %d %q: %v", si, g.Label, err)
			}
			if cfg.NumCores != 4 {
				t.Errorf("%q: cores = %d", g.Label, cfg.NumCores)
			}
			if g.Label == "" {
				t.Errorf("sweep %d has unlabeled config", si)
			}
		}
	}
}

func TestSweepLabelsUnique(t *testing.T) {
	for _, sweep := range [][]ConfigGen{L1Sweep(0), L2Sweep(0), L1PrefetchSweep(0), L2PrefetchSweep(0), DRAMSweep(0)} {
		seen := make(map[string]bool)
		for _, g := range sweep {
			if seen[g.Label] {
				t.Errorf("duplicate label %q", g.Label)
			}
			seen[g.Label] = true
		}
	}
}

// TestSweepPointsAreValues pins that each sweep point is one value: Make
// returns the same Config on every call, and no two points of a sweep
// share a Config, so a point's Config can key a per-configuration table.
func TestSweepPointsAreValues(t *testing.T) {
	sweeps := []struct {
		name string
		gens []ConfigGen
	}{
		{"l1", L1Sweep(4)}, {"l2", L2Sweep(4)},
		{"l1-prefetch", L1PrefetchSweep(4)}, {"l2-prefetch", L2PrefetchSweep(4)},
		{"dram", DRAMSweep(4)}, {"lrr", SchedulerSweep(4, memsim.LRR)},
		{"gto", SchedulerSweep(4, memsim.GTO)}, {"pself", SchedulerSweep(4, memsim.PSelf)},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			seen := make(map[memsim.Config]string, len(sw.gens))
			for _, g := range sw.gens {
				a, errA := g.Make()
				b, errB := g.Make()
				if errA != nil || errB != nil {
					t.Fatalf("%q: %v, %v", g.Label, errA, errB)
				}
				if a != b {
					t.Errorf("%q: Make returned %+v, then %+v", g.Label, a, b)
				}
				if other, ok := seen[a]; ok {
					t.Errorf("%q and %q share a configuration", other, g.Label)
				}
				seen[a] = g.Label
			}
		})
	}
}

// TestSchedulerSweepIsL1SweepUnderPolicy pins Figure 6e's points: Figure
// 6a's L1 configurations, in order, with the policy set and named.
func TestSchedulerSweepIsL1SweepUnderPolicy(t *testing.T) {
	l1 := L1Sweep(4)
	for _, policy := range []memsim.SchedPolicy{memsim.LRR, memsim.GTO, memsim.PSelf} {
		for i, g := range SchedulerSweep(4, policy) {
			want, _ := l1[i].Make()
			want.Scheduler = policy
			if policy != memsim.LRR {
				want.SchedPself = 0.9
			}
			got, err := g.Make()
			if err != nil || got != want || g.Label != l1[i].Label+" "+policy.String() {
				t.Errorf("%s point %d = %q %+v (err %v), want %q %+v",
					policy, i, g.Label, got, err, l1[i].Label+" "+policy.String(), want)
			}
		}
	}
}

func TestFig6aQuick(t *testing.T) {
	opts := quickOpts()
	fig, err := opts.Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, r := range fig.Rows {
		if r.Points != 30 {
			t.Errorf("%s points = %d", r.Benchmark, r.Points)
		}
		// Regular streaming benchmarks must clone nearly perfectly.
		if r.Error > 10 {
			t.Errorf("%s error = %.2fpp, want < 10", r.Benchmark, r.Error)
		}
		if r.Correlation < 0.8 {
			t.Errorf("%s correlation = %.3f", r.Benchmark, r.Correlation)
		}
	}
}

func TestFig6bQuick(t *testing.T) {
	opts := quickOpts()
	fig, err := opts.Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	if fig.AvgError > 15 {
		t.Errorf("avg L2 error = %.2fpp", fig.AvgError)
	}
}

func TestTable1(t *testing.T) {
	opts := DefaultOptions()
	rows, err := opts.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 20 {
		t.Fatalf("table1 has %d rows", len(rows))
	}
	// Spot-check the kmeans row against the paper's Table 1.
	found := false
	for _, r := range rows {
		if r.Benchmark == "kmeans" && r.PC == 0xe8 {
			found = true
			if r.Freq < 0.95 {
				t.Errorf("kmeans freq = %.3f", r.Freq)
			}
			if r.InterStride != 4352 {
				t.Errorf("kmeans inter stride = %d, want 4352", r.InterStride)
			}
			if r.Reuse != "high" {
				t.Errorf("kmeans reuse = %s", r.Reuse)
			}
		}
	}
	if !found {
		t.Error("kmeans PC 0xe8 missing from table 1")
	}
}

func TestFig8Quick(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nn"}
	fig, err := opts.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 5 {
		t.Fatalf("fig8 has %d points", len(fig.Points))
	}
	// Request ratio must grow with the factor.
	for i := 1; i < len(fig.Points); i++ {
		if fig.Points[i].RequestRatio <= fig.Points[i-1].RequestRatio {
			t.Errorf("request ratio not monotone: %+v", fig.Points)
		}
	}
	// 1x must be essentially exact for a regular streaming benchmark.
	if fig.Points[0].Accuracy < 95 {
		t.Errorf("1x accuracy = %.2f", fig.Points[0].Accuracy)
	}
}

func TestRunDispatch(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nn"}
	var buf bytes.Buffer
	if err := opts.Run(&buf, "table2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GDDR3") {
		t.Errorf("table2 output missing DRAM row: %q", buf.String())
	}
	if err := opts.Run(&buf, "nonesuch"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestWriteFigure(t *testing.T) {
	f := &FigureResult{ID: "figX", Title: "test", Metric: "m",
		Rows: []BenchResult{{Benchmark: "a", Points: 3, Error: 1.5, Correlation: 0.9}}}
	f.finalize()
	var buf bytes.Buffer
	if err := WriteFigure(&buf, f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "benchmark", "a", "AVERAGE"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTable1Format(t *testing.T) {
	rows := []Table1Row{
		{Benchmark: "x", PC: 0x10, Freq: 0.5, InterStride: 128, InterFreq: 0.9, IntraStride: -64, Reuse: "low"},
		{Benchmark: "x", PC: 0x18, Freq: 0.5, InterStride: 128, InterFreq: 0.9, IntraStride: 64, Reuse: "low"},
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, rows); err != nil {
		t.Fatal(err)
	}
	// Repeated benchmark names collapse.
	if strings.Count(buf.String(), "x ") > 1 && strings.Count(buf.String(), "\nx") > 1 {
		t.Errorf("benchmark name repeated:\n%s", buf.String())
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := map[string]bool{"table1": true, "table2": true, "fig6a": true, "fig6b": true,
		"fig6c": true, "fig6d": true, "fig6e": true, "fig7": true, "fig8": true, "ablation": true}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Errorf("unexpected id %q", id)
		}
	}
}

func TestErrorMetrics(t *testing.T) {
	if e := rateError([]float64{0.5, 0.2}, []float64{0.55, 0.25}); e < 4.99 || e > 5.01 {
		t.Errorf("rateError = %v, want 5pp", e)
	}
	if rateError(nil, nil) != 0 {
		t.Error("empty rate error not 0")
	}
}

// TestBenchRow: a figure row scores rates in percentage points and
// magnitudes in percent through core.Comparison, and its correlation is
// the comparison's, flat series included.
func TestBenchRow(t *testing.T) {
	near := func(got, want float64) bool { return got > want-0.01 && got < want+0.01 }
	if r := benchRow("x", []float64{0.5, 0.2}, []float64{0.55, 0.25}, true); r.Benchmark != "x" ||
		r.Points != 2 || !near(r.Error, 5) || !near(r.Correlation, 1) {
		t.Errorf("rate row = %+v, want 5pp over 2 points, r=1", r)
	}
	if r := benchRow("x", []float64{100, 200}, []float64{110, 180}, false); !near(r.Error, 10) || !near(r.Correlation, 1) {
		t.Errorf("magnitude row = %+v, want 10%%, r=1", r)
	}
	if r := benchRow("x", []float64{1, 1}, []float64{1, 1}, false); r.Error != 0 || r.Correlation != 1 {
		t.Errorf("flat row = %+v, want no error, r=1", r)
	}
	for _, asRate := range []bool{true, false} {
		if r := benchRow("x", nil, nil, asRate); r.Points != 0 || r.Error != 0 {
			t.Errorf("empty row (rate %v) = %+v, want no points and no error", asRate, r)
		}
	}
}

// TestFillDefaultsKeepsScaleFactorBelowOne: only a missing or negative
// scale factor takes the default of 4; one in (0,1) scales the clone up
// and is kept.
func TestFillDefaultsKeepsScaleFactorBelowOne(t *testing.T) {
	for sf, want := range map[float64]float64{0: 4, -1: 4, 0.5: 0.5, 1: 1, 4: 4, 5: 5} {
		o := Options{ScaleFactor: sf}
		o.fillDefaults()
		if o.ScaleFactor != want {
			t.Errorf("ScaleFactor %v filled to %v, want %v", sf, o.ScaleFactor, want)
		}
	}
}

func TestFig6eQuick(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nn"}
	res, err := opts.Fig6e()
	if err != nil {
		t.Fatal(err)
	}
	if res.LRR == nil || res.GTO == nil {
		t.Fatal("missing sub-figures")
	}
	var buf bytes.Buffer
	if err := WriteFig6e(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fig6e summary") {
		t.Errorf("output missing summary: %s", buf.String())
	}
}

func TestFig7Quick(t *testing.T) {
	opts := quickOpts()
	opts.Benchmarks = []string{"nn", "aes"}
	res, err := opts.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RBL.Rows) != 2 || res.RBL.Rows[0].Points != 11 {
		t.Fatalf("fig7 shape wrong: %+v", res.RBL.Rows)
	}
	// aes is the normalization reference: its original bars must be 1.
	for _, row := range res.Normalized {
		if row.Benchmark == "aes" {
			if row.RBLOrig != 1 || row.ReadLatOrig != 1 {
				t.Errorf("aes not normalized to 1: %+v", row)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteFig7(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "normalized to original AES") {
		t.Error("fig7 bars section missing")
	}
}

func TestWriteFig8Format(t *testing.T) {
	res := &Fig8Result{Points: []Fig8Point{
		{Factor: 1, Accuracy: 99, Speedup: 1, RequestRatio: 1},
		{Factor: 8, Accuracy: 90, Speedup: 7.5, RequestRatio: 8.1},
	}}
	var buf bytes.Buffer
	if err := WriteFig8(&buf, res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig8", "8x", "7.50x"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fig8 output missing %q:\n%s", want, buf.String())
		}
	}
}

// TestMemoBuildPanicLeavesError pins that a build which panics inside the
// memo's once leaves an error behind: every later get, of a value-typed
// memo and of the workload and ablation-variant memos built on it,
// fails instead of returning a zero value or a nil workload.
func TestMemoBuildPanicLeavesError(t *testing.T) {
	panicky := func(get func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("the build's panic did not reach the first get")
			}
		}()
		get()
	}

	var m memo[string, int]
	panicky(func() { _, _ = m.get("nn", func() (int, error) { panic("build failed") }) })
	for i := 0; i < 2; i++ {
		if v, err := m.get("nn", func() (int, error) { return 1, nil }); err == nil {
			t.Fatalf("get %d after a panicked build returned %d and no error", i, v)
		}
	}

	o := quickOpts()
	o.fillDefaults()
	panicky(func() {
		_, _ = o.memos.workloads.get(o.memoKey("nn"), func() (*core.Workload, error) { panic("prepare failed") })
	})
	if w, err := o.workload("nn"); err == nil || w != nil {
		t.Errorf("workload after a panicked build = (%v, %v), want an error", w, err)
	}
	if w, err := o.variant(context.Background(), "nn", AblationVariants()[0]); err == nil || w != nil {
		t.Errorf("variant over a panicked workload = (%v, %v), want an error", w, err)
	}
}

// TestMemoBuildsOnceUnderConcurrentGets pins that concurrent gets of one
// key run its build once and all see its value.
func TestMemoBuildsOnceUnderConcurrentGets(t *testing.T) {
	var m memo[string, int]
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.get("nn", func() (int, error) { return int(builds.Add(1)), nil })
			if err != nil || v != 1 {
				t.Errorf("get = (%d, %v), want (1, nil)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
}
