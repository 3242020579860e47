package gmap

// Benchmark-regression harness. These tests are expensive and
// machine-sensitive, so they only run when GMAP_BENCH_REGRESS=1 (the
// nightly bench-regress CI job sets it); plain `go test` skips them.
//
//	GMAP_BENCH_REGRESS=1 go test -run TestBenchRegress -v .
//
// Two baselines are checked in:
//
//   - BENCH_runner.json pins the serial Fig6a sweep's ns/op. The check
//     fails when the sweep runs >25% slower than the recorded baseline
//     (override the tolerance with GMAP_BENCH_TOLERANCE, a fraction).
//     Refresh with GMAP_BENCH_UPDATE=1 after an intentional change.
//   - BENCH_obs.json pins the observability overhead: the memory-system
//     simulator with a registry attached versus detached. The overhead
//     is a same-process ratio, so unlike raw ns/op it is comparable
//     across machines; it must stay under 3% (GMAP_BENCH_OBS_MAX
//     overrides).
//   - BENCH_trace.json pins the span-tracing overhead the same way: the
//     simulator with a trace span attached versus detached, with the
//     disabled (nil-span) path additionally required to stay within the
//     same 3% budget (GMAP_BENCH_TRACE_MAX overrides).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/uteda/gmap/internal/obs"
)

const (
	envRegress   = "GMAP_BENCH_REGRESS"
	envUpdate    = "GMAP_BENCH_UPDATE"
	envTolerance = "GMAP_BENCH_TOLERANCE"
	envObsMax    = "GMAP_BENCH_OBS_MAX"
	envTraceMax  = "GMAP_BENCH_TRACE_MAX"
)

func requireRegress(t *testing.T) {
	t.Helper()
	if os.Getenv(envRegress) != "1" {
		t.Skipf("benchmark-regression checks disabled; set %s=1 to run", envRegress)
	}
}

func envFraction(t *testing.T, name string, def float64) float64 {
	t.Helper()
	s := os.Getenv(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		t.Fatalf("bad %s=%q: want a positive fraction like 0.25", name, s)
	}
	return v
}

// runnerBaseline mirrors BENCH_runner.json. Only the fields the
// regression check reads and refreshes are typed; the rest round-trips
// through Extra so an update never discards the recorded host metadata.
type runnerBaseline struct {
	SerialNsPerOp   int64                      `json:"serial_ns_per_op"`
	ParallelNsPerOp int64                      `json:"parallel_ns_per_op"`
	Speedup         float64                    `json:"speedup"`
	Extra           map[string]json.RawMessage `json:"-"`
}

func (b *runnerBaseline) UnmarshalJSON(data []byte) error {
	if err := json.Unmarshal(data, &b.Extra); err != nil {
		return err
	}
	read := func(key string, dst interface{}) error {
		raw, ok := b.Extra[key]
		if !ok {
			return fmt.Errorf("BENCH_runner.json: missing %q", key)
		}
		delete(b.Extra, key)
		return json.Unmarshal(raw, dst)
	}
	if err := read("serial_ns_per_op", &b.SerialNsPerOp); err != nil {
		return err
	}
	if err := read("parallel_ns_per_op", &b.ParallelNsPerOp); err != nil {
		return err
	}
	return read("speedup", &b.Speedup)
}

func (b runnerBaseline) MarshalJSON() ([]byte, error) {
	out := make(map[string]interface{}, len(b.Extra)+3)
	for k, v := range b.Extra {
		out[k] = v
	}
	out["serial_ns_per_op"] = b.SerialNsPerOp
	out["parallel_ns_per_op"] = b.ParallelNsPerOp
	out["speedup"] = b.Speedup
	return json.MarshalIndent(out, "", "  ")
}

// TestBenchRegressRunner re-times the tier-1 serial sweep benchmark and
// fails when it regressed more than 25% against BENCH_runner.json.
func TestBenchRegressRunner(t *testing.T) {
	requireRegress(t)
	data, err := os.ReadFile("BENCH_runner.json")
	if err != nil {
		t.Fatal(err)
	}
	var base runnerBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}

	serial := testing.Benchmark(BenchmarkSweepSerial).NsPerOp()
	t.Logf("serial sweep: %d ns/op (baseline %d ns/op, %+.1f%%)",
		serial, base.SerialNsPerOp, 100*(float64(serial)/float64(base.SerialNsPerOp)-1))

	if os.Getenv(envUpdate) == "1" {
		parallel := testing.Benchmark(BenchmarkSweepParallel).NsPerOp()
		base.SerialNsPerOp = serial
		base.ParallelNsPerOp = parallel
		base.Speedup = float64(int(100*float64(serial)/float64(parallel))) / 100
		out, err := base.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_runner.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("BENCH_runner.json refreshed: serial=%d parallel=%d", serial, parallel)
		return
	}

	tol := envFraction(t, envTolerance, 0.25)
	if limit := float64(base.SerialNsPerOp) * (1 + tol); float64(serial) > limit {
		t.Fatalf("serial sweep regressed: %d ns/op exceeds baseline %d ns/op by more than %.0f%%\n"+
			"If intentional, refresh with %s=1 %s=1 go test -run TestBenchRegressRunner .",
			serial, base.SerialNsPerOp, tol*100, envRegress, envUpdate)
	}
}

// obsBaseline is BENCH_obs.json: the recorded observability overhead of
// the memory-system simulator.
type obsBaseline struct {
	Benchmark     string  `json:"benchmark"`
	ObsOffNsPerOp int64   `json:"obs_off_ns_per_op"`
	ObsOnNsPerOp  int64   `json:"obs_on_ns_per_op"`
	OverheadFrac  float64 `json:"overhead_frac"`
	MaxFrac       float64 `json:"max_frac"`
	Notes         string  `json:"notes"`
}

// measureSim times one full simulation of the blk workload, returning
// the best (least-noisy) of rounds runs.
func measureSim(t *testing.T, cfg SimConfig, warps []WarpTrace, rounds int) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := SimulateWarps(warps, cfg); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// TestBenchRegressObsOverhead measures the instrumented-versus-detached
// simulator in the same process and fails when attaching a registry
// costs more than 3%. The ratio is machine-independent (both sides run
// on the same host back to back), so this check needs no re-baselining
// across machines; BENCH_obs.json records the measurement for reference.
func TestBenchRegressObsOverhead(t *testing.T) {
	requireRegress(t)
	tr, err := BenchmarkTrace("blk", 1)
	if err != nil {
		t.Fatal(err)
	}
	warps := Coalesce(tr, 128)
	// Noisy-neighbour containers swing single runs by several percent —
	// more than the budget itself — so each side takes the minimum over
	// enough rounds for both to hit a quiet scheduling window.
	const rounds = 25

	off := DefaultSimConfig()
	on := DefaultSimConfig()
	on.Obs = obs.New()
	// Warm both paths once so neither side pays first-run effects, then
	// interleave the timed rounds so slow host drift (thermal, noisy
	// container neighbours) biases neither side.
	measureSim(t, off, warps, 1)
	measureSim(t, on, warps, 1)
	offBest, onBest := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		if d := measureSim(t, off, warps, 1); d < offBest {
			offBest = d
		}
		if d := measureSim(t, on, warps, 1); d < onBest {
			onBest = d
		}
	}

	overhead := float64(onBest-offBest) / float64(offBest)
	maxFrac := envFraction(t, envObsMax, 0.03)
	t.Logf("obs off: %v  obs on: %v  overhead: %+.2f%% (max %.0f%%)",
		offBest, onBest, overhead*100, maxFrac*100)

	if os.Getenv(envUpdate) == "1" {
		base := obsBaseline{
			Benchmark:     "SimulateWarps(blk, scale 1), min of 25 interleaved runs, obs registry attached vs detached",
			ObsOffNsPerOp: offBest.Nanoseconds(),
			ObsOnNsPerOp:  onBest.Nanoseconds(),
			OverheadFrac:  float64(int(overhead*10000)) / 10000,
			MaxFrac:       maxFrac,
			Notes: "Overhead is a same-process ratio and transfers across machines, unlike the raw ns/op. " +
				"Hot paths count into plain tallies flushed to the registry once per run, stall " +
				"classification is O(1) via incremental occupancy shadows, and one sampler Due check " +
				"per scheduler iteration gates the expensive stats passes. Refresh with " +
				"GMAP_BENCH_REGRESS=1 GMAP_BENCH_UPDATE=1 go test -run TestBenchRegressObsOverhead .",
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_obs.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("BENCH_obs.json refreshed")
		return
	}

	if overhead > maxFrac {
		t.Fatalf("observability overhead %.2f%% exceeds the %.0f%% budget (obs off %v, obs on %v)",
			overhead*100, maxFrac*100, offBest, onBest)
	}
}

// traceBaseline is BENCH_trace.json: the recorded span-tracing overhead
// of the memory-system simulator.
type traceBaseline struct {
	Benchmark       string  `json:"benchmark"`
	TraceOffNsPerOp int64   `json:"trace_off_ns_per_op"`
	TraceOnNsPerOp  int64   `json:"trace_on_ns_per_op"`
	OverheadFrac    float64 `json:"overhead_frac"`
	MaxFrac         float64 `json:"max_frac"`
	Notes           string  `json:"notes"`
}

// TestBenchRegressTraceOverhead measures the traced-versus-untraced
// simulator in the same process and fails when attaching a span costs
// more than 3%. The untraced side runs the nil-span path that every
// production simulation without -trace-out takes, so this is also the
// disabled-path budget. BENCH_trace.json records the measurement.
func TestBenchRegressTraceOverhead(t *testing.T) {
	requireRegress(t)
	tr, err := BenchmarkTrace("blk", 1)
	if err != nil {
		t.Fatal(err)
	}
	warps := Coalesce(tr, 128)
	// The true cost is a handful of span records per run — far below the
	// noise floor of a single run on a shared host, where drift has
	// correlation times of whole seconds and min-of-N ratios wander by
	// several percent. Each round therefore times the two sides in an
	// ABBA sequence (off, on, on, off) with each side the min of 5 runs:
	// position effects — the second run in a back-to-back pair reliably
	// pays the first one's GC debt — cancel within the round, slow drift
	// cancels across the palindrome, the min-of-5 strips scheduling
	// spikes from each sample, and outlier rounds fall out of the median
	// taken over rounds. A null experiment (both sides untraced) stays
	// within ±1% under this design.
	const rounds = 9
	const minOf = 5

	off := DefaultSimConfig()
	// Each traced round gets a fresh tracer so the event log never grows
	// across rounds — the measurement stays per-run, not cumulative. The
	// traced root is a Root span, the shape a distributed worker's lease
	// span takes.
	tracedRound := func() time.Duration {
		tracer := NewTracer()
		root := tracer.Root("bench")
		on := DefaultSimConfig()
		on.TraceSpan = root
		d := measureSim(t, on, warps, minOf)
		root.End()
		return d
	}

	// Warm both paths first so neither side pays first-run effects.
	measureSim(t, off, warps, 1)
	tracedRound()
	ratios := make([]float64, 0, rounds)
	var offBest, onBest time.Duration = 1<<63 - 1, 1<<63 - 1
	for i := 0; i < rounds; i++ {
		dOff1 := measureSim(t, off, warps, minOf)
		dOn1 := tracedRound()
		dOn2 := tracedRound()
		dOff2 := measureSim(t, off, warps, minOf)
		ratios = append(ratios, float64(dOn1+dOn2)/float64(dOff1+dOff2))
		for _, d := range []time.Duration{dOff1, dOff2} {
			if d < offBest {
				offBest = d
			}
		}
		for _, d := range []time.Duration{dOn1, dOn2} {
			if d < onBest {
				onBest = d
			}
		}
	}
	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2] - 1

	maxFrac := envFraction(t, envTraceMax, 0.03)
	t.Logf("trace off: %v  trace on: %v  median paired overhead: %+.2f%% (max %.0f%%)",
		offBest, onBest, overhead*100, maxFrac*100)

	if os.Getenv(envUpdate) == "1" {
		base := traceBaseline{
			Benchmark:       "SimulateWarps(blk, scale 1), median ABBA-paired ratio (min-of-5 samples) over 9 rounds, trace span attached vs nil",
			TraceOffNsPerOp: offBest.Nanoseconds(),
			TraceOnNsPerOp:  onBest.Nanoseconds(),
			OverheadFrac:    float64(int(overhead*10000)) / 10000,
			MaxFrac:         maxFrac,
			Notes: "Span tracing records two spans per single-launch simulation (memsim.run plus the " +
				"bench root) — the per-run cost is span bookkeeping, not per-request work. The off " +
				"side exercises the nil-span fast path. The overhead is the median of per-round " +
				"paired on/off ratios, which is robust to the slow drift of shared hosts. Refresh " +
				"with GMAP_BENCH_REGRESS=1 GMAP_BENCH_UPDATE=1 go test -run TestBenchRegressTraceOverhead .",
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_trace.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("BENCH_trace.json refreshed")
		return
	}

	if overhead > maxFrac {
		t.Fatalf("span-tracing overhead %.2f%% exceeds the %.0f%% budget (trace off %v, trace on %v)",
			overhead*100, maxFrac*100, offBest, onBest)
	}
}

// BenchmarkSimTraceOff / BenchmarkSimTraceOn expose the two sides of the
// span-tracing measurement as ordinary benchmarks:
//
//	go test -run=xxx -bench='BenchmarkSimTrace' -benchtime=5x .
func BenchmarkSimTraceOff(b *testing.B) {
	benchSimTrace(b, false)
}

func BenchmarkSimTraceOn(b *testing.B) {
	benchSimTrace(b, true)
}

func benchSimTrace(b *testing.B, withTrace bool) {
	b.Helper()
	tr, err := BenchmarkTrace("blk", 1)
	if err != nil {
		b.Fatal(err)
	}
	warps := Coalesce(tr, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig()
		if withTrace {
			tracer := NewTracer()
			cfg.TraceSpan = tracer.Root("bench")
		}
		if _, err := SimulateWarps(warps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimObsOff / BenchmarkSimObsOn expose the two sides of the
// overhead measurement as ordinary benchmarks for ad-hoc comparison:
//
//	go test -run=xxx -bench='BenchmarkSimObs' -benchtime=5x .
func BenchmarkSimObsOff(b *testing.B) {
	benchSimObs(b, false)
}

func BenchmarkSimObsOn(b *testing.B) {
	benchSimObs(b, true)
}

func benchSimObs(b *testing.B, withObs bool) {
	b.Helper()
	tr, err := BenchmarkTrace("blk", 1)
	if err != nil {
		b.Fatal(err)
	}
	warps := Coalesce(tr, 128)
	cfg := DefaultSimConfig()
	if withObs {
		cfg.Obs = obs.New()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateWarps(warps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// memsimBaseline is BENCH_memsim.json: the recorded single-simulation
// cost of the simulator.
type memsimBaseline struct {
	Benchmark     string `json:"benchmark"`
	CPUs          int    `json:"cpus"`
	SerialNsPerOp int64  `json:"serial_ns_per_op"`
	Notes         string `json:"notes"`
}

// TestBenchRegressMemsim times one full simulation (best of 9 rounds of
// min-of-5 samples) and fails when it exceeds BENCH_memsim.json's
// recorded ns/op by more than GMAP_BENCH_TOLERANCE. Update mode records
// the median of five such measurements, so one lucky or unlucky
// measurement does not set the budget.
func TestBenchRegressMemsim(t *testing.T) {
	requireRegress(t)
	tr, err := BenchmarkTrace("blk", 1)
	if err != nil {
		t.Fatal(err)
	}
	warps := Coalesce(tr, 128)
	const rounds = 9
	const minOf = 5

	cfg := DefaultSimConfig()
	measureSim(t, cfg, warps, 1)
	measure := func() time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			if d := measureSim(t, cfg, warps, minOf); d < best {
				best = d
			}
		}
		return best
	}
	cpus := runtime.NumCPU()

	if os.Getenv(envUpdate) == "1" {
		const measurements = 5
		ds := make([]time.Duration, measurements)
		for i := range ds {
			ds[i] = measure()
		}
		t.Logf("serial measurements: %v on %d CPUs", ds, cpus)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		base := memsimBaseline{
			Benchmark:     "SimulateWarps(blk, scale 1), median of 5 measurements, each the best of 9 rounds of min-of-5 samples",
			CPUs:          cpus,
			SerialNsPerOp: ds[measurements/2].Nanoseconds(),
			Notes: "The serial ns/op is the simulator's no-regression budget, checked against " +
				"GMAP_BENCH_TOLERANCE. Refresh with " +
				"GMAP_BENCH_REGRESS=1 GMAP_BENCH_UPDATE=1 go test -run TestBenchRegressMemsim .",
		}
		out, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_memsim.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("BENCH_memsim.json refreshed")
		return
	}
	best := measure()
	t.Logf("serial: %v on %d CPUs", best, cpus)

	data, err := os.ReadFile("BENCH_memsim.json")
	if err != nil {
		t.Fatal(err)
	}
	var base memsimBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	tol := envFraction(t, envTolerance, 0.25)
	if limit := float64(base.SerialNsPerOp) * (1 + tol); float64(best.Nanoseconds()) > limit {
		t.Fatalf("simulator regressed: %d ns/op exceeds baseline %d ns/op by more than %.0f%%\n"+
			"If intentional, refresh with %s=1 %s=1 go test -run TestBenchRegressMemsim .",
			best.Nanoseconds(), base.SerialNsPerOp, tol*100, envRegress, envUpdate)
	}
}

// BenchmarkMemsimSerial exposes the simulation TestBenchRegressMemsim
// gates as an ordinary benchmark:
//
//	go test -run=xxx -bench='BenchmarkMemsim' -benchtime=5x .
func BenchmarkMemsimSerial(b *testing.B) {
	tr, err := BenchmarkTrace("blk", 1)
	if err != nil {
		b.Fatal(err)
	}
	warps := Coalesce(tr, 128)
	cfg := DefaultSimConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateWarps(warps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
