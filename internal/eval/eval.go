package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/fault"
	"github.com/uteda/gmap/internal/memsim"
	"github.com/uteda/gmap/internal/obs"
	obstrace "github.com/uteda/gmap/internal/obs/trace"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/runner"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/workloads"
)

// Options parameterizes an evaluation run.
type Options struct {
	// Benchmarks to evaluate; nil means all 18.
	Benchmarks []string
	// Scale is the workload size knob (1 = default evaluation size).
	Scale int
	// ScaleFactor is the proxy miniaturization factor (paper: ~4-5); a
	// factor in (0,1) scales the clone up. A non-positive factor selects
	// 4.
	ScaleFactor float64
	// Seed drives profiling-independent sampling.
	Seed uint64
	// Cores overrides the simulated SM count (0 = Table 2's 15).
	Cores int
	// Progress, when non-nil, receives one line per completed benchmark
	// plus live sweep-progress lines. Delivery is serialized: concurrent
	// jobs never interleave partial lines.
	Progress func(format string, args ...interface{})

	// Workers is the parallel simulation job count: 0 uses every CPU, 1
	// forces serial execution. Every simulation point owns its seeded
	// RNG, so parallel runs produce results identical to serial ones.
	Workers int
	// Checkpoint, when non-empty, streams each completed simulation
	// point to a JSONL file keyed by a stable job hash (experiment,
	// benchmark, configuration, seed, scale, scale factor, cores).
	Checkpoint string
	// Resume skips simulation points already recorded in Checkpoint, so
	// an interrupted run picks up where it stopped. A torn trailing
	// checkpoint line is salvaged and truncated (see runner).
	Resume bool
	// Fsync syncs the checkpoint file after every append, hardening it
	// against machine crashes rather than just process kills.
	Fsync bool
	// Tolerate downgrades per-benchmark sweep failures from fatal to
	// skip-and-report: benchmarks with failed points are dropped from the
	// figure (logged via Progress) and the remaining rows are kept.
	// Fig8 ignores it — its per-factor averages span benchmarks, so a
	// dropped benchmark would silently skew every factor's accuracy.
	Tolerate bool
	// FS routes checkpoint I/O; nil selects the real filesystem (crash
	// tests substitute a fault injector).
	FS fault.FS
	// Context, when non-nil, cancels an in-flight evaluation (e.g. on
	// SIGINT); completed points remain in the checkpoint.
	Context context.Context
	// JobTimeout, when non-zero, bounds each simulation point's wall
	// time; a timed-out point fails that job without killing the sweep.
	JobTimeout time.Duration
	// Obs, when non-nil, collects execution instrumentation across the
	// run: runner job/checkpoint timings and utilization, plus
	// profiling/generation phase histograms ("profile.*", "synth.*").
	// Purely observational; results are identical with or without it.
	Obs *obs.Registry
	// Trace, when non-nil, records hierarchical spans of the run: one
	// "eval.<experiment>" root per sweep, per-benchmark preparation spans
	// (nesting the profiler/synth phase spans), and the execution engine's
	// worker/job spans beneath each sweep. Purely observational, like Obs.
	Trace *obstrace.Tracer
	// Attr, when non-nil, enables per-π / per-PC accuracy attribution:
	// benchmarks whose figure error exceeds Attr.Threshold get a ranked
	// drill-down report (see attribution.go).
	Attr *AttrOptions
	// NoTimings omits wall-clock timings and execution statistics from
	// figure results and their rendered reports, so two runs with the
	// same options produce byte-identical report text. The serve layer
	// relies on this to content-address and cache sweep results, and the
	// distributed merge replay (internal/dist) to prove shard-equals-
	// serial byte identity. Fig8's measured speedup column is inherently
	// wall-clock, so under NoTimings it is not aggregated and renders as
	// "-"; the per-point checkpoint payloads still record the measured
	// nanoseconds.
	NoTimings bool

	// Shard, when non-nil, restricts sweep execution to the job keys it
	// selects: non-matching jobs are neither executed nor resumed and
	// their results stay zero-valued, so a sharded run's assembled
	// figures are meaningless and must be discarded. Shard is an
	// execution filter only — it never changes job keys — and exists for
	// the distributed worker (internal/dist), which cares about the
	// per-key checkpoint values it streams back, not the local report,
	// and for SweepKeys, whose shard records every key and selects none.
	Shard func(key string) bool
	// ResultSink, when non-nil, receives every executed simulation
	// point's checkpoint event (key, canonical JSON payload, execution
	// time) in completion order; a sink error aborts the sweep. See
	// runner.Options.Sink.
	ResultSink func(key string, value json.RawMessage, elapsed time.Duration) error

	// progressMu serializes Progress delivery; exec accumulates runner
	// statistics; live mirrors the newest runner event for the HTTP
	// /progress endpoint; strict arms the one-shot resume-mismatch
	// check. All are pointers so copies of an Options value share them.
	progressMu *sync.Mutex
	exec       *execAccum
	live       *liveProgress
	strict     *strictResume
	// memos holds what this value's runs build once and share across
	// calls: a distributed worker keeps one Options per sweep across its
	// leases, and "-exp all" prepares each benchmark once, not once per
	// figure. Also a pointer, so copies share it.
	memos *memos
}

// strictResume arms runner.Options.ResumeStrict for exactly the first
// resumed sweep run through an Options value. Only the first sweep can
// judge the checkpoint's universe: under "-exp all" every later sweep
// legitimately sees a checkpoint full of other experiments' keys, while
// the first sweep's keys encode experiment, seed, scale, scale factor
// and cores — so resuming with any mismatched option still fails fast
// instead of silently re-running from zero.
type strictResume struct {
	mu   sync.Mutex
	used bool
}

// take reports whether this is the first strict-eligible sweep.
func (s *strictResume) take() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used {
		return false
	}
	s.used = true
	return true
}

// execAccum totals runner statistics across every sweep this Options
// value executes.
type execAccum struct {
	mu    sync.Mutex
	total runner.Stats
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Scale: 1, ScaleFactor: 4, Seed: 1}
}

func (o *Options) fillDefaults() {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.Names()
	}
	if o.Scale < 1 {
		o.Scale = 1
	}
	if o.ScaleFactor <= 0 {
		o.ScaleFactor = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.progressMu == nil {
		o.progressMu = &sync.Mutex{}
	}
	if o.exec == nil {
		o.exec = &execAccum{}
	}
	if o.live == nil {
		o.live = &liveProgress{}
	}
	if o.strict == nil {
		o.strict = &strictResume{}
	}
	if o.memos == nil {
		o.memos = &memos{}
	}
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Progress == nil {
		return
	}
	o.progressMu.Lock()
	defer o.progressMu.Unlock()
	o.Progress(format, args...)
}

func (o *Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// ExecStats returns the accumulated execution summary (jobs completed,
// failed, resumed; wall and summed work time; jobs/sec) across every
// sweep run through this Options value.
func (o *Options) ExecStats() runner.Stats {
	o.fillDefaults()
	o.exec.mu.Lock()
	defer o.exec.mu.Unlock()
	return o.exec.total
}

// jobKey builds a simulation point's stable checkpoint identity. The
// configuration is digested via its sweep label, which uniquely encodes
// the swept parameters; everything else that shapes the result — the
// benchmark, seed, workload scale, miniaturization factor and core
// count — is mixed in explicitly, so runs with different options never
// share checkpoint entries.
func (o *Options) jobKey(experiment, benchmark string, parts ...string) string {
	base := []string{
		"gmap-eval/v1", experiment, benchmark,
		"seed=" + strconv.FormatUint(o.Seed, 10),
		"scale=" + strconv.Itoa(o.Scale),
		"sf=" + strconv.FormatFloat(o.ScaleFactor, 'g', -1, 64),
		"cores=" + strconv.Itoa(o.Cores),
	}
	return runner.JobKey(append(base, parts...)...)
}

// runJobs drains jobs through the execution engine with this run's
// worker count, checkpointing and progress surface, and accumulates the
// runner statistics. Job-level failures are left in the results for the
// caller to collect; the error return is cancellation only.
func runJobs[R any](o *Options, experiment string, jobs []runner.Job[R]) ([]runner.Result[R], runner.Stats, error) {
	// A shard executes only the selected subset; the skipped jobs' result
	// slots stay zero-valued and are scattered back so figure assembly
	// still sees the full sweep shape.
	run := jobs
	var shardIdx []int
	if o.Shard != nil {
		run = nil
		for i := range jobs {
			if o.Shard(jobs[i].Key) {
				shardIdx = append(shardIdx, i)
				run = append(run, jobs[i])
			}
		}
	}
	lastDecile := -1
	sweepSpan := o.Trace.Root("eval."+experiment, obstrace.Int("jobs", int64(len(run))))
	defer sweepSpan.End()
	o.live.beginSweep(experiment, len(run))
	ropts := runner.Options{
		Workers:      o.Workers,
		Timeout:      o.JobTimeout,
		Checkpoint:   o.Checkpoint,
		Resume:       o.Resume,
		ResumeStrict: o.Resume && o.strict.take(),
		Fsync:        o.Fsync,
		FS:           o.FS,
		Obs:          o.Obs,
		Sink:         o.ResultSink,
		TraceSpan:    sweepSpan,
		OnEvent: func(e runner.Event) {
			o.live.note(e)
			if e.Kind == runner.JobFailed {
				o.logf("%s job %s failed: %v", experiment, e.Key, e.Err)
			}
			if e.Total < 20 {
				return // per-benchmark lines cover small sweeps
			}
			if decile := e.Finished() * 10 / e.Total; decile > lastDecile {
				lastDecile = decile
				o.logf("%s %s", experiment, e.ProgressLine())
			}
		},
	}
	results, st, err := runner.Run(o.ctx(), ropts, run)
	if o.Shard != nil {
		full := make([]runner.Result[R], len(jobs))
		for i := range jobs {
			full[i].Key = jobs[i].Key
		}
		for si, r := range results {
			full[shardIdx[si]] = r
		}
		results = full
	}
	o.exec.mu.Lock()
	o.exec.total = o.exec.total.Add(st)
	o.exec.mu.Unlock()
	return results, st, err
}

// SweepKeys enumerates the stable job keys of one experiment's sweeps —
// the distributed coordinator's view of the job space — without
// executing any simulation, touching checkpoints, or emitting progress.
// Keys come back sorted and deduplicated. Experiments without sweep
// jobs (table1, table2) contribute no keys: the coordinator recomputes
// those parts locally during replay. The enumeration shares jobKey with
// execution by construction, so a worker running the same Options can
// never disagree with the coordinator about job identity.
func (o Options) SweepKeys(experiment string) ([]string, error) {
	// o is a value copy: strip everything that would log or persist, and
	// detach the shared accumulators so enumeration leaves the caller's
	// Options untouched. The shard records every key and selects none,
	// so nothing executes and every result stays zero-valued.
	var keys []string
	o.Shard = func(key string) bool {
		keys = append(keys, key)
		return false
	}
	o.Progress = nil
	o.Checkpoint = ""
	o.Resume = false
	o.ResultSink = nil
	o.Obs = nil
	o.Trace = nil
	o.Attr = nil
	o.progressMu, o.exec, o.live, o.strict, o.memos = nil, nil, nil, nil, nil
	o.fillDefaults()
	if err := o.RunSweeps(experiment); err != nil {
		return nil, err
	}
	sort.Strings(keys)
	uniq := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			uniq = append(uniq, k)
		}
	}
	return uniq, nil
}

// RunSweeps runs the sweep jobs of an experiment and renders nothing:
// every sweep experiment for "all", nothing for the tables. It is what
// a distributed worker runs for a lease, whose assembled figures are
// meaningless (see Shard), and what SweepKeys drives in enumeration.
func (o *Options) RunSweeps(experiment string) error {
	switch experiment {
	case "table1", "table2":
		return nil
	case "all":
		for _, id := range ExperimentIDs() {
			if err := o.RunSweeps(id); err != nil {
				return err
			}
		}
		return nil
	default:
		return o.Run(io.Discard, experiment)
	}
}

// collectErrors summarizes job-level failures after a sweep drains.
func collectErrors[R any](experiment string, results []runner.Result[R]) error {
	var first error
	var n int
	for _, r := range results {
		if r.Err != nil {
			n++
			if first == nil {
				first = r.Err
			}
		}
	}
	if first == nil {
		return nil
	}
	return fmt.Errorf("eval %s: %d/%d jobs failed; first: %w", experiment, n, len(results), first)
}

// benchFailure returns the first failure among benchmark bi's points in
// a benchmark-major result layout (results[bi*per+gi]), or nil if all
// its points succeeded.
func benchFailure[R any](results []runner.Result[R], bi, per int) error {
	for gi := 0; gi < per; gi++ {
		if err := results[bi*per+gi].Err; err != nil {
			return err
		}
	}
	return nil
}

// prepare builds the workload pipeline for one benchmark.
func (o *Options) prepare(name string) (*core.Workload, error) {
	sp := o.Trace.Root("eval.prepare", obstrace.String("benchmark", name))
	defer sp.End()
	pcfg := profiler.DefaultConfig()
	pcfg.Obs = o.Obs
	pcfg.TraceSpan = sp
	return core.Prepare(name, o.Scale, pcfg,
		synth.Options{Seed: o.Seed, ScaleFactor: o.ScaleFactor, Obs: o.Obs, TraceSpan: sp})
}

// memo builds each key's value at most once, on the first get that needs
// it, and hands every get the value and error that build returned. A
// build that panics leaves an error behind, so the gets after it fail
// instead of returning a zero value. The zero memo is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (c *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	e := c.m[key]
	if e == nil {
		if c.m == nil {
			c.m = make(map[K]*memoEntry[V])
		}
		e = &memoEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.err = fmt.Errorf("eval: building %v did not complete", key)
		e.v, e.err = build()
	})
	return e.v, e.err
}

// memos are the builds an Options value shares across its runs. Keys
// carry every option a build depends on, so a copy of the Options with
// other options never reads a stale entry.
type memos struct {
	workloads memo[memoKey, *core.Workload]
	origs     memo[memoKey, fig8Original]
	variants  memo[memoKey, *core.Workload]
}

// memoKey identifies one build: a benchmark's pipeline, plus the core
// count of a Fig 8 original or the name of an ablation variant.
type memoKey struct {
	benchmark, variant string
	scale, cores       int
	scaleFactor        float64
	seed               uint64
}

func (o *Options) memoKey(benchmark string) memoKey {
	return memoKey{benchmark: benchmark, scale: o.Scale, scaleFactor: o.ScaleFactor, seed: o.Seed}
}

// workload builds each benchmark's pipeline at most once, on the first
// job that needs it — so a fully checkpointed benchmark is never
// re-profiled on resume.
func (o *Options) workload(name string) (*core.Workload, error) {
	return o.memos.workloads.get(o.memoKey(name), func() (*core.Workload, error) { return o.prepare(name) })
}

// BenchResult is one benchmark's row in a figure: clone error and
// correlation over the sweep.
type BenchResult struct {
	Benchmark string
	// Points is the number of validation points (configurations).
	Points int
	// Error is the mean absolute error. For rate metrics (miss rates,
	// RBL) it is measured in percentage points; for magnitude metrics
	// (latency, queue length) it is relative percent.
	Error float64
	// Correlation is Pearson's r between the original and proxy series.
	Correlation float64
}

// FigureResult aggregates one experiment.
type FigureResult struct {
	ID    string
	Title string
	// Metric names the compared quantity.
	Metric string
	Rows   []BenchResult
	// AvgError and AvgCorrelation are the headline numbers the paper
	// quotes per figure.
	AvgError       float64
	AvgCorrelation float64
	// Elapsed is the wall-clock cost of regenerating the figure.
	Elapsed time.Duration
	// Exec summarizes the execution engine's work for this figure
	// (jobs completed/failed/resumed, throughput).
	Exec runner.Stats
}

// finalize computes the aggregate row.
func (f *FigureResult) finalize() {
	var errs, corrs []float64
	for _, r := range f.Rows {
		errs = append(errs, r.Error)
		corrs = append(corrs, r.Correlation)
	}
	f.AvgError = stats.Mean(errs)
	f.AvgCorrelation = stats.Mean(corrs)
}

// rateError is the error metric for rates in [0,1]: mean absolute
// difference in percentage points.
func rateError(orig, prox []float64) float64 {
	var sum float64
	for i := range orig {
		sum += stats.AbsError(orig[i], prox[i])
	}
	if len(orig) == 0 {
		return 0
	}
	return sum / float64(len(orig))
}

// benchRow scores one benchmark's paired sweep: rates by rateError,
// magnitudes by core.Comparison's mean absolute percent error, and the
// trend by its correlation.
func benchRow(name string, orig, prox []float64, asRate bool) BenchResult {
	c := core.Comparison{Original: orig, Proxy: prox}
	row := BenchResult{Benchmark: name, Points: len(orig), Correlation: c.Correlation()}
	if asRate {
		row.Error = rateError(orig, prox)
	} else {
		row.Error = c.MeanAbsPctError()
	}
	return row
}

// pointSample is one simulation point's paired measurement — the
// checkpointed unit of figure sweeps.
type pointSample struct {
	Orig float64 `json:"orig"`
	Prox float64 `json:"prox"`
}

// simulate runs one side of w, the original or its clone, at g's
// configuration. The span riding ctx (the runner's job span) parents the
// simulation's spans.
func simulate(ctx context.Context, w *core.Workload, proxy bool, g ConfigGen) (memsim.Metrics, error) {
	cfg, err := g.Make()
	if err != nil {
		return memsim.Metrics{}, fmt.Errorf("eval: %s: %w", g.Label, err)
	}
	cfg.TraceSpan = obstrace.FromContext(ctx)
	if proxy {
		return w.SimulateProxy(cfg)
	}
	return w.SimulateOriginal(cfg)
}

// simPoint simulates one configuration on both sides of a workload.
func simPoint(ctx context.Context, w *core.Workload, og, pg ConfigGen, metric core.Metric) (pointSample, error) {
	om, err := simulate(ctx, w, false, og)
	if err != nil {
		return pointSample{}, err
	}
	pm, err := simulate(ctx, w, true, pg)
	if err != nil {
		return pointSample{}, err
	}
	return pointSample{Orig: metric.Fn(om), Prox: metric.Fn(pm)}, nil
}

// runFigure evaluates a metric sweep across all selected benchmarks: one
// execution-engine job per (benchmark, configuration) point, results
// reassembled in sweep order so parallel runs reproduce serial output
// exactly. When proxyGens is nil the same generators drive both sides;
// Figure 6e passes a different proxy-side policy (SchedPself
// approximating GTO).
func (o *Options) runFigure(id, title string, metric core.Metric, asRate bool, gens, proxyGens []ConfigGen) (*FigureResult, error) {
	o.fillDefaults()
	if proxyGens == nil {
		proxyGens = gens
	}
	if len(proxyGens) != len(gens) {
		return nil, fmt.Errorf("eval: %d original configs vs %d proxy configs", len(gens), len(proxyGens))
	}
	start := time.Now()
	fig := &FigureResult{ID: id, Title: title, Metric: metric.Name}
	jobs := make([]runner.Job[pointSample], 0, len(o.Benchmarks)*len(gens))
	for _, name := range o.Benchmarks {
		name := name
		for i := range gens {
			og, pg := gens[i], proxyGens[i]
			jobs = append(jobs, runner.Job[pointSample]{
				Key: o.jobKey(id, name, og.Label, "proxy:"+pg.Label, metric.Name),
				Run: func(ctx context.Context) (pointSample, error) {
					w, err := o.workload(name)
					if err != nil {
						return pointSample{}, err
					}
					return simPoint(ctx, w, og, pg, metric)
				},
			})
		}
	}
	results, st, err := runJobs(o, id, jobs)
	if err != nil {
		return nil, fmt.Errorf("eval %s: %w", id, err)
	}
	if err := collectErrors(id, results); err != nil && !o.Tolerate {
		return nil, err
	}
	for bi, name := range o.Benchmarks {
		if ferr := benchFailure(results, bi, len(gens)); ferr != nil {
			// Only reachable with Tolerate: drop the benchmark's row
			// rather than fold failed (zero) points into its error stats.
			o.logf("%s %-12s skipped: %v", id, name, ferr)
			continue
		}
		orig := make([]float64, 0, len(gens))
		prox := make([]float64, 0, len(gens))
		for i := 0; i < len(gens); i++ {
			s := results[bi*len(gens)+i].Value
			orig = append(orig, s.Orig)
			prox = append(prox, s.Prox)
		}
		row := benchRow(name, orig, prox, asRate)
		fig.Rows = append(fig.Rows, row)
		o.logf("%s %-12s error %6.2f%s corr %.3f (%d pts)",
			id, name, row.Error, errUnit(asRate), row.Correlation, row.Points)
		o.maybeAttribute(id, row, metric.Name, asRate)
	}
	if len(fig.Rows) == 0 {
		return nil, fmt.Errorf("eval %s: every benchmark failed", id)
	}
	fig.finalize()
	if !o.NoTimings {
		fig.Elapsed = time.Since(start)
		fig.Exec = st
	}
	return fig, nil
}

func errUnit(asRate bool) string {
	if asRate {
		return "pp"
	}
	return "%"
}

// Fig6a regenerates Figure 6a: L1 miss-rate cloning across 30 L1
// configurations.
func (o *Options) Fig6a() (*FigureResult, error) {
	o.fillDefaults()
	return o.runFigure("fig6a", "L1 cache configurations: proxy vs original miss rate",
		core.L1MissRate, true, L1Sweep(o.Cores), nil)
}

// Fig6b regenerates Figure 6b: L2 miss-rate cloning across 30 L2
// configurations.
func (o *Options) Fig6b() (*FigureResult, error) {
	o.fillDefaults()
	return o.runFigure("fig6b", "L2 cache configurations: proxy vs original miss rate",
		core.L2MissRate, true, L2Sweep(o.Cores), nil)
}

// Fig6c regenerates Figure 6c: L1 miss rate with a many-thread-aware
// stride prefetcher across 72 configurations.
func (o *Options) Fig6c() (*FigureResult, error) {
	o.fillDefaults()
	return o.runFigure("fig6c", "L1 cache + stride prefetcher configurations",
		core.L1MissRate, true, L1PrefetchSweep(o.Cores), nil)
}

// Fig6d regenerates Figure 6d: L2 miss rate with a stream prefetcher
// across 96 configurations.
func (o *Options) Fig6d() (*FigureResult, error) {
	o.fillDefaults()
	return o.runFigure("fig6d", "L2 cache + stream prefetcher configurations",
		core.L2MissRate, true, L2PrefetchSweep(o.Cores), nil)
}

// Fig6eResult carries the two policy sub-figures of Figure 6e.
type Fig6eResult struct {
	LRR *FigureResult
	GTO *FigureResult
}

// Fig6e regenerates Figure 6e: L1 miss-rate cloning under LRR and GTO
// warp scheduling. The proxy replicates GTO via the SchedPself
// approximation of §4.5 rather than modeling the core pipeline.
func (o *Options) Fig6e() (*Fig6eResult, error) {
	o.fillDefaults()
	lrr, err := o.runFigure("fig6e/lrr", "Scheduling policy impact (LRR)",
		core.L1MissRate, true, SchedulerSweep(o.Cores, memsim.LRR), nil)
	if err != nil {
		return nil, err
	}
	// Original runs true GTO; the proxy side approximates it with PSelf.
	origGens := SchedulerSweep(o.Cores, memsim.GTO)
	proxGens := SchedulerSweep(o.Cores, memsim.PSelf)
	gto, err := o.runFigure("fig6e/gto", "Scheduling policy impact (GTO, proxy via SchedPself)",
		core.L1MissRate, true, origGens, proxGens)
	if err != nil {
		return nil, err
	}
	return &Fig6eResult{LRR: lrr, GTO: gto}, nil
}
