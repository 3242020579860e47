// Command bench is the repository benchmark. It times the work a G-MAP
// user waits for (regenerating a design-space figure, building clones,
// running the file-based pipeline on a large kernel), reports the clone's
// error against the original, and checks every result against digests
// of the original side. A traced run does the same work serially through
// each layer's public functions and reports per-layer metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fig6a-l1 --seed 1 --seconds 10 --trace 0
//
// Without -workload every workload runs, each in its own child process.
// The last line of a workload's output is its result as one JSON object.
// See README.md for the workloads, the metrics and the recorded medians.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/uteda/gmap/internal/profiler"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of the untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"err_pp", "pp", "lower"},
}

// perLayer are the metrics of the traced run.
var perLayer = []metricDef{
	{"kernelsim.self_s", "s", "lower"},
	{"kernelsim.calls", "count", "lower"},
	{"kernelsim.accesses", "count", "lower"},
	{"kernelsim.ns_per_access", "ns", "lower"},
	{"kernelsim.alloc_mb", "MB", "lower"},
	{"gpu.self_s", "s", "lower"},
	{"gpu.calls", "count", "lower"},
	{"gpu.requests", "count", "lower"},
	{"gpu.accesses_per_req", "ratio", "higher"},
	{"gpu.ns_per_req", "ns", "lower"},
	{"gpu.alloc_mb", "MB", "lower"},
	{"profiler.self_s", "s", "lower"},
	{"profiler.calls", "count", "lower"},
	{"profiler.ns_per_req", "ns", "lower"},
	{"profiler.alloc_mb", "MB", "lower"},
	{"profiler.pi_profiles", "count", "lower"},
	{"synth.self_s", "s", "lower"},
	{"synth.calls", "count", "lower"},
	{"synth.proxy_reqs", "count", "lower"},
	{"synth.req_ratio", "ratio", "higher"},
	{"synth.alloc_mb", "MB", "lower"},
	{"trace.write_s", "s", "lower"},
	{"trace.read_s", "s", "lower"},
	{"trace.orig_mb", "MB", "lower"},
	{"trace.proxy_mb", "MB", "lower"},
	{"trace.alloc_mb", "MB", "lower"},
	{"memsim.self_s", "s", "lower"},
	{"memsim.calls", "count", "lower"},
	{"memsim.orig_self_s", "s", "lower"},
	{"memsim.proxy_self_s", "s", "lower"},
	{"memsim.sim_reqs", "count", "lower"},
	{"memsim.sim_cycles", "cycles", "lower"},
	{"memsim.ns_per_req", "ns", "lower"},
	{"memsim.alloc_mb", "MB", "lower"},
	{"memsim.mshr_stalls", "count", "lower"},
	{"memsim.clone_speedup", "ratio", "higher"},
	{"cache.l1_accesses", "count", "lower"},
	{"cache.l1_miss_rate", "ratio", "lower"},
	{"cache.l2_accesses", "count", "lower"},
	{"cache.l2_miss_rate", "ratio", "lower"},
	{"dram.requests", "count", "lower"},
	{"dram.row_hit_rate", "ratio", "higher"},
	{"dram.avg_queue_len", "requests", "lower"},
	{"dram.avg_read_lat", "cycles", "lower"},
	{"runner.jobs", "count", "lower"},
	{"runner.failed", "count", "lower"},
	{"runner.retries", "count", "lower"},
	{"runner.utilization", "ratio", "higher"},
	{"bench.traced_wall_s", "s", "lower"},
	{"bench.untraced_wall_s", "s", "lower"},
	{"bench.coverage", "ratio", "higher"},
}

const (
	// setupPasses is how many times set-up runs; setup_s is the median.
	setupPasses = 3
	// minCoverage is the share of the traced wall time the layer spans
	// must account for.
	minCoverage = 0.95
)

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := flag.Uint64("seed", 1, "seed of clone generation (0 selects 1, as eval does)")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds: the workload repeats while another pass fits, and runs at least once")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics, 0 prints end-to-end metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes <workload>/trace.json under")
	child := flag.Bool("child", false, "run the workload in this process (the parent process sets it)")
	flag.Parse()

	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	var names []string
	if *name == "" {
		for _, w := range suite {
			names = append(names, w.name)
		}
	} else if findWorkload(*name) == nil {
		fatalf("unknown workload %q", *name)
	} else {
		names = []string{*name}
	}
	if !*child {
		os.Exit(runParent(names))
	}
	o := opts{seed: max(*seed, 1), workers: min(2, runtime.NumCPU())}
	os.Exit(runChild(findWorkload(*name), o, time.Duration(*seconds)*time.Second, *traced == 1, *traceDir))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runParent runs each workload in a child process of this binary, one at
// a time, so that no workload's heap or peak memory carries into
// another's. A signal stops the running child before the parent exits.
func runParent(names []string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		args := append(append([]string(nil), os.Args[1:]...), "-child", "-workload", name)
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
		if ctx.Err() != nil {
			return 1
		}
	}
	return code
}

// report is what a child prints: operation counts, metric values and the
// outcome whose accuracy and digests they were checked against.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	out               *outcome
}

func runChild(w *workload, o opts, budget time.Duration, traced bool, traceDir string) int {
	printHost(w.name, o)
	var r *report
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		r, err = measureTraced(w, o, traceDir)
	} else {
		r, err = measure(w, o, budget)
	}
	if err == nil {
		for _, d := range defs {
			if _, ok := r.metrics[d.name]; !ok {
				err = fmt.Errorf("metric %s was not measured", d.name)
				break
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		r.failed = max(r.failed, 1)
	}
	if !printResult(r, defs, err == nil) || err != nil {
		return 1
	}
	return 0
}

// measure is the untraced run: set-up passes, then the timed phase. Each
// call of a pass is timed on its own and scaled by the host speed around
// it (see stopwatch). setup_s is the median over the set-up passes of a
// pass's scaled time. wall_s sums over the calls of a timed pass the
// median scaled time of each call across every time it ran; a set-up
// call that the timed pass makes too (the large-kernel chain) counts.
func measure(w *workload, o opts, budget time.Duration) (*report, error) {
	r := &report{metrics: make(map[string]float64)}
	sw := newStopwatch()
	laps := make(map[string][]float64) // scaled times of each call
	record := func() {
		for name, s := range sw.laps {
			laps[name] = append(laps[name], s)
		}
	}
	var setups, setupsRaw []float64
	var profiles []*profiler.Profile
	for i := 0; i < setupPasses; i++ {
		sw.reset()
		ps, n, err := w.setup(o, sw)
		setups = append(setups, sw.scaled())
		setupsRaw = append(setupsRaw, sw.raw.Seconds())
		record()
		r.attempted += n
		if err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		profiles = ps
	}
	var first *outcome
	var walls, wallsRaw []float64
	calls := make(map[string]bool) // the calls of a timed pass
	start := time.Now()
	for {
		sw.reset()
		t0 := time.Now()
		out, err := w.run(o, sw)
		d := time.Since(t0)
		r.attempted += out.attempted
		r.failed += out.failed
		if err != nil {
			return r, err
		}
		walls = append(walls, sw.scaled())
		wallsRaw = append(wallsRaw, sw.raw.Seconds())
		record()
		for name := range sw.laps {
			calls[name] = true
		}
		if err := addProfiles(out, profiles); err != nil {
			return r, err
		}
		if first == nil {
			first = out
		} else if err := agree(first, out); err != nil {
			return r, fmt.Errorf("repeat %d differs from the first: %w", len(walls), err)
		}
		if time.Since(start)+d > budget {
			break
		}
	}
	r.out = first
	printOutcome(first)
	refs := make([]float64, len(sw.refs))
	for i, d := range sw.refs {
		refs[i] = d.Seconds() * 1e3
	}
	fmt.Printf("reference      %.2f ms median over %d timings, %.2f ms nominal\n", median(refs), len(refs), refNominal.Seconds()*1e3)
	fmt.Printf("set-up passes  %.4f s scaled, %.4f s host time\n", setups, setupsRaw)
	fmt.Printf("timed passes   %.4f s scaled, %.4f s host time\n", walls, wallsRaw)
	if err := checkOrig(w.name, o, first); err != nil {
		return r, err
	}
	var wall float64
	for _, name := range sortedKeys(calls) {
		wall += median(laps[name])
	}
	r.metrics["wall_s"] = wall
	r.metrics["setup_s"] = median(setups)
	r.metrics["peak_rss_mb"] = peakRSSMB()
	r.metrics["err_pp"] = first.errPP
	return r, nil
}

// measureTraced is the traced run: one set-up pass and one untraced pass,
// whose runner statistics and wall time it reports, then the traced pass.
// The traced pass must reproduce the untraced pass's results exactly.
func measureTraced(w *workload, o opts, dir string) (*report, error) {
	r := &report{metrics: make(map[string]float64)}
	profiles, n, err := w.setup(o, nil)
	r.attempted += n
	if err != nil {
		return r, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	t0 := time.Now()
	un, err := w.run(o, nil)
	untraced := time.Since(t0).Seconds()
	r.attempted += un.attempted
	r.failed += un.failed
	if err != nil {
		return r, err
	}
	if err := addProfiles(un, profiles); err != nil {
		return r, err
	}

	runtime.GC()
	p := newTracedProbe("bench." + w.name)
	tr, err := w.traced(o, p)
	p.root.End()
	r.attempted += tr.attempted
	r.failed += tr.failed
	if err != nil {
		return r, fmt.Errorf("traced pass: %w", err)
	}
	if err := addProfiles(tr, nil); err != nil {
		return r, err
	}
	r.out = tr
	printOutcome(tr)
	if err := agree(un, tr); err != nil {
		return r, fmt.Errorf("traced pass disagrees with the untraced pass: %w", err)
	}
	if err := checkOrig(w.name, o, tr); err != nil {
		return r, err
	}
	if d := p.tr.Dropped(); d > 0 {
		return r, fmt.Errorf("tracer dropped %d spans", d)
	}
	path := filepath.Join(dir, w.name, "trace.json")
	if err := writeTrace(p, path); err != nil {
		return r, err
	}
	p.layerMetrics(r.metrics)
	st := un.exec
	r.metrics["runner.jobs"] = float64(st.Total)
	r.metrics["runner.failed"] = float64(st.Failed)
	r.metrics["runner.retries"] = float64(st.Retries)
	r.metrics["runner.utilization"] = st.Utilization
	r.metrics["bench.untraced_wall_s"] = untraced
	fmt.Printf("trace %s\n", path)
	fmt.Printf("traced minus untraced wall %.4f s\n", r.metrics["bench.traced_wall_s"]-untraced)
	if c := r.metrics["bench.coverage"]; c < minCoverage {
		return r, fmt.Errorf("layer spans cover %.3f of the traced wall time, below %.2f", c, minCoverage)
	}
	return r, nil
}

// addProfiles adds the profiles a pass built, and those its set-up built,
// to the pass's original digest.
func addProfiles(out *outcome, setup []*profiler.Profile) error {
	for _, ps := range [][]*profiler.Profile{out.profiles, setup} {
		for _, p := range ps {
			if err := out.orig.profile(p); err != nil {
				return err
			}
		}
	}
	out.profiles = nil
	return nil
}

// agree reports how two passes of one workload differ, if they do.
func agree(a, b *outcome) error {
	if x, y := a.orig.sum(), b.orig.sum(); x != y {
		return fmt.Errorf("orig_digest %s vs %s", x, y)
	}
	if x, y := a.proxy.sum(), b.proxy.sum(); x != y {
		return fmt.Errorf("proxy_digest %s vs %s", x, y)
	}
	if len(a.details) != len(b.details) {
		return fmt.Errorf("%d accuracy figures vs %d", len(a.details), len(b.details))
	}
	for i := range a.details {
		if a.details[i] != b.details[i] {
			return fmt.Errorf("%s %v vs %v", a.details[i].name, a.details[i].value, b.details[i].value)
		}
	}
	return nil
}

// checkOrig compares a workload's orig_digest with the pinned one. Runs
// on a narrowed benchmark set have no pinned digest.
func checkOrig(name string, o opts, out *outcome) error {
	if o.benchmarks != nil {
		return nil
	}
	want, got := pinnedOrigDigest[name], out.orig.sum()
	if got != want {
		return fmt.Errorf("orig_digest %s, pinned %q: the original-side results changed", got, want)
	}
	return nil
}

func printOutcome(out *outcome) {
	for _, d := range out.details {
		fmt.Printf("%-28s %16.6f %s\n", d.name, d.value, d.unit)
	}
	fmt.Printf("orig_digest  %s\n", out.orig.sum())
	fmt.Printf("proxy_digest %s\n", out.proxy.sum())
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// printResult prints each metric by name with its unit, then the result
// as one JSON object on the last line. It reports whether the JSON could
// be encoded.
func printResult(r *report, defs []metricDef, correct bool) bool {
	res := resultJSON{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricJSON)}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Printf("%-28s %16.6f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: result: %v\n", err)
		return false
	}
	fmt.Println(string(b))
	return true
}

// hostStamp identifies the machine and settings a result was measured
// with.
type hostStamp struct {
	Workload   string `json:"workload"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Seed       uint64 `json:"seed"`
}

func printHost(name string, o opts) {
	b, _ := json.Marshal(hostStamp{
		Workload:   name,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    o.workers,
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Seed:       o.seed,
	})
	fmt.Printf("host %s\n", b)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or the
// architecture where that file is missing.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is this process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func writeTrace(p *probe, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, giving 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
