package core

import (
	"reflect"
	"testing"

	"github.com/uteda/gmap/internal/cache"
	"github.com/uteda/gmap/internal/gpu"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/workloads"
)

func smallSim() memsim.Config {
	cfg := memsim.DefaultConfig()
	cfg.NumCores = 4
	return cfg
}

func prepare(t testing.TB, name string) *Workload {
	t.Helper()
	w, err := Prepare(name, 1, profiler.DefaultConfig(), synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPrepareUnknownBenchmark(t *testing.T) {
	if _, err := Prepare("nope", 1, profiler.DefaultConfig(), synth.DefaultOptions()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestPrepareBuildsEverything(t *testing.T) {
	w := prepare(t, "bp")
	if w.Profile == nil || w.Proxy == nil || len(w.Warps) == 0 {
		t.Fatal("incomplete workload")
	}
	if w.Name != "bp" {
		t.Errorf("Name = %q", w.Name)
	}
}

func TestSimulateBothStreams(t *testing.T) {
	w := prepare(t, "bp")
	orig, err := w.SimulateOriginal(smallSim())
	if err != nil {
		t.Fatal(err)
	}
	prox, err := w.SimulateProxy(smallSim())
	if err != nil {
		t.Fatal(err)
	}
	if orig.Requests == 0 || prox.Requests == 0 {
		t.Fatal("empty simulations")
	}
	// Proxy is miniaturized ~4x.
	ratio := float64(orig.Requests) / float64(prox.Requests)
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("miniaturization ratio = %.2f, want ~4", ratio)
	}
}

func TestCloneAccuracyL1(t *testing.T) {
	// The headline property: proxy L1 miss rate within ~12 percentage
	// points of the original for regular workloads, on the paper's
	// Table 2 system (15 SMs) that the whole evaluation runs on.
	cfg := memsim.DefaultConfig()
	for _, name := range []string{"kmeans", "blk", "scalarprod", "nn", "heartwall", "bp", "lib"} {
		w := prepare(t, name)
		orig, err := w.SimulateOriginal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prox, err := w.SimulateProxy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		diff := orig.L1MissRate() - prox.L1MissRate()
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.12 {
			t.Errorf("%s: L1 miss rate orig %.3f vs proxy %.3f (|Δ| = %.3f)",
				name, orig.L1MissRate(), prox.L1MissRate(), diff)
		}
	}
}

func TestComparisonMetrics(t *testing.T) {
	c := &Comparison{Benchmark: "x", Metric: "m"}
	c.Add("a", 0.5, 0.55)
	c.Add("b", 0.4, 0.44)
	c.Add("c", 0.3, 0.33)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if e := c.MeanAbsPctError(); e < 9.9 || e > 10.1 {
		t.Errorf("MeanAbsPctError = %v, want ~10", e)
	}
	if r := c.Correlation(); r < 0.999 {
		t.Errorf("Correlation = %v, want ~1", r)
	}
}

func TestComparisonFlatSeries(t *testing.T) {
	c := &Comparison{}
	c.Add("a", 0.5, 0.5)
	c.Add("b", 0.5, 0.5)
	if r := c.Correlation(); r != 1 {
		t.Errorf("flat-flat correlation = %v, want 1", r)
	}
	c2 := &Comparison{}
	c2.Add("a", 0.5, 0.1)
	c2.Add("b", 0.5, 0.9)
	if r := c2.Correlation(); r != 0 {
		t.Errorf("flat-vs-trend correlation = %v, want 0", r)
	}
}

func TestCompareSweep(t *testing.T) {
	w := prepare(t, "scalarprod")
	configs := make([]memsim.Config, 0, 3)
	labels := make([]string, 0, 3)
	for _, size := range []int{8 << 10, 32 << 10, 128 << 10} {
		cfg := smallSim()
		cfg.L1 = cache.Config{SizeBytes: size, Ways: 4, LineSize: 128}
		configs = append(configs, cfg)
		labels = append(labels, cfg.L1.String())
	}
	cmp, err := Compare(w, configs, labels, L1MissRate)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Len() != 3 {
		t.Fatalf("Len = %d", cmp.Len())
	}
	if cmp.Metric != "l1-miss-rate" || cmp.Benchmark != "scalarprod" {
		t.Errorf("metadata = %q/%q", cmp.Benchmark, cmp.Metric)
	}
	for i, v := range cmp.Original {
		if v < 0 || v > 1 {
			t.Errorf("original[%d] = %v", i, v)
		}
	}
}

func TestCompareLabelMismatch(t *testing.T) {
	w := prepare(t, "nn")
	if _, err := Compare(w, []memsim.Config{smallSim()}, nil, L1MissRate); err == nil {
		t.Error("label mismatch accepted")
	}
}

func TestMetricAccessors(t *testing.T) {
	var m memsim.Metrics
	m.L1.Accesses, m.L1.Misses = 10, 5
	m.L2.Accesses, m.L2.Misses = 4, 1
	if L1MissRate.Fn(m) != 0.5 || L2MissRate.Fn(m) != 0.25 {
		t.Error("miss-rate metrics wrong")
	}
	for _, metric := range []Metric{DRAMRowBufferLocality, DRAMQueueLen, DRAMReadLatency, DRAMWriteLatency} {
		if metric.Fn(m) != 0 {
			t.Errorf("%s on zero metrics = %v", metric.Name, metric.Fn(m))
		}
	}
}

func TestCompareAppSweep(t *testing.T) {
	w, err := PrepareApp("srad", 1, profiler.DefaultConfig(), synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	configs := []memsim.Config{smallSim(), smallSim()}
	configs[1].L1 = cache.Config{SizeBytes: 64 << 10, Ways: 8, LineSize: 128}
	cmp, err := CompareApp(w, configs, []string{"base", "big-l1"}, L1MissRate)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Len() != 2 {
		t.Fatalf("Len = %d", cmp.Len())
	}
	// A bigger L1 must not increase the original's miss rate.
	if cmp.Original[1] > cmp.Original[0]+1e-9 {
		t.Errorf("bigger L1 raised app miss rate: %v", cmp.Original)
	}
	if _, err := CompareApp(w, configs, nil, L1MissRate); err == nil {
		t.Error("label mismatch accepted")
	}
}

// TestPrepareTraceCoalescesOnce pins that preparation coalesces the
// trace in one BuildWarpTraces pass, whose warps both feed the profiler
// and become Workload.Warps: the coalescer histogram counts each original
// request once, and the warps match a fresh coalescer's request for
// request.
func TestPrepareTraceCoalescesOnce(t *testing.T) {
	spec, ok := workloads.ByName("heartwall")
	if !ok {
		t.Fatal("heartwall missing")
	}
	tr, err := spec.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	pcfg := profiler.DefaultConfig()
	pcfg.Obs = reg
	w, err := PrepareTrace(tr, pcfg, synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}

	ref := obs.New()
	want := gpu.NewCoalescer(pcfg.LineSize).AttachObs(ref).BuildWarpTraces(tr)
	if !reflect.DeepEqual(w.Warps, want) {
		t.Error("Workload.Warps differ from a fresh coalescing of the trace")
	}
	if n := reg.Histogram("phase.profile.coalesce.ns").Count(); n != 1 {
		t.Errorf("profile.coalesce ran %d times, want 1", n)
	}
	got, once := reg.Histogram("coalesce.txns_per_request"), ref.Histogram("coalesce.txns_per_request")
	if got.Count() != once.Count() || got.Sum() != once.Sum() {
		t.Errorf("coalescer histogram count/sum %d/%d, want one pass's %d/%d",
			got.Count(), got.Sum(), once.Count(), once.Sum())
	}
}

// TestPrepareStreamsLikePrepareTrace pins the two emulator drivers
// against each other through the whole pipeline: for every benchmark,
// Prepare, which emulates a warp at a time into the coalescer, builds the
// same warps, profile and clone as PrepareTrace over the benchmark's
// per-thread trace. It does so in one profile.coalesce phase whose
// coalescer histogram matches PrepareTrace's one pass.
func TestPrepareStreamsLikePrepareTrace(t *testing.T) {
	sopts := synth.Options{Seed: 1, ScaleFactor: 4}
	for _, spec := range workloads.All() {
		t.Run(spec.Name, func(t *testing.T) {
			streamed, whole := profiler.DefaultConfig(), profiler.DefaultConfig()
			streamed.Obs, whole.Obs = obs.New(), obs.New()
			got, err := Prepare(spec.Name, 1, streamed, sopts)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := spec.Trace(1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := PrepareTrace(tr, whole, sopts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name {
				t.Errorf("Name = %q, want %q", got.Name, want.Name)
			}
			if !reflect.DeepEqual(got.Warps, want.Warps) {
				t.Error("streamed warps differ from the coalesced per-thread trace")
			}
			if !reflect.DeepEqual(got.Profile, want.Profile) {
				t.Error("streamed profile differs")
			}
			if !reflect.DeepEqual(got.Proxy, want.Proxy) {
				t.Error("streamed clone differs")
			}
			if n := streamed.Obs.Histogram("phase.profile.coalesce.ns").Count(); n != 1 {
				t.Errorf("profile.coalesce ran %d times, want 1", n)
			}
			g, w := streamed.Obs.Histogram("coalesce.txns_per_request"), whole.Obs.Histogram("coalesce.txns_per_request")
			if g.Count() != w.Count() || g.Sum() != w.Sum() {
				t.Errorf("coalescer histogram count/sum %d/%d, want PrepareTrace's %d/%d",
					g.Count(), g.Sum(), w.Count(), w.Sum())
			}
		})
	}
}

// TestPrepareAppTraceCoalescesOnce pins that the application pipeline
// coalesces each launch once: its Launches are a fresh coalescing of
// each launch, warp ids included (the merged numbering the profiler uses
// stays inside the profiler), and the coalescer histogram counts one
// pass over the launches.
func TestPrepareAppTraceCoalescesOnce(t *testing.T) {
	spec, _ := workloads.ByName("kmeans")
	app, err := spec.AppTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	pcfg := profiler.DefaultConfig()
	pcfg.Obs = reg
	w, err := PrepareAppTrace(app, pcfg, synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := obs.New()
	c := gpu.NewCoalescer(pcfg.LineSize).AttachObs(ref)
	if len(w.Launches) != len(app.Launches) {
		t.Fatalf("%d launches, want %d", len(w.Launches), len(app.Launches))
	}
	for i, k := range app.Launches {
		if !reflect.DeepEqual(w.Launches[i], c.BuildWarpTraces(k)) {
			t.Errorf("launch %d differs from a fresh coalescing of its trace", i)
		}
	}
	got, once := reg.Histogram("coalesce.txns_per_request"), ref.Histogram("coalesce.txns_per_request")
	if got.Count() != once.Count() || got.Sum() != once.Sum() {
		t.Errorf("coalescer histogram count/sum %d/%d, want one pass's %d/%d",
			got.Count(), got.Sum(), once.Count(), once.Sum())
	}

	streamed, err := PrepareApp("kmeans", 1, profiler.DefaultConfig(), synth.Options{Seed: 1, ScaleFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed.Launches, w.Launches) || !reflect.DeepEqual(streamed.Profile, w.Profile) ||
		!reflect.DeepEqual(streamed.Proxy, w.Proxy) {
		t.Error("streamed PrepareApp differs from PrepareAppTrace over the emulated launches")
	}
}
