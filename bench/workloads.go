package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/uteda/gmap/internal/core"
	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/profiler"
	"github.com/uteda/gmap/internal/runner"
	"github.com/uteda/gmap/internal/stats"
	"github.com/uteda/gmap/internal/synth"
	"github.com/uteda/gmap/internal/workloads"
)

// scaleFactor is the clone miniaturization factor every workload uses
// except where Fig 8 sweeps it.
const scaleFactor = 4

// opts are the inputs every workload function takes.
type opts struct {
	// benchmarks narrows the workload's benchmark set (tests use it);
	// nil runs the workload's own set.
	benchmarks []string
	// seed drives clone generation only. Original kernels and every
	// simulation of an original do not depend on it.
	seed    uint64
	workers int
}

// detail is one named accuracy figure of a workload, printed beside the
// metrics and compared between the untraced and the traced run.
type detail struct {
	name, unit string
	value      float64
}

// outcome is what one pass of a workload produced.
type outcome struct {
	attempted, failed int
	// errPP is the workload's headline clone error in percentage points.
	errPP   float64
	details []detail
	// orig digests the original side of every result, proxy the clone
	// side. Only the clone side depends on the seed.
	orig, proxy digest
	// profiles are the profiles the pass built. They join orig once the
	// pass has ended, so hashing them is not timed as the pass's work.
	profiles []*profiler.Profile
	// exec totals the runner statistics of the workload's sweeps.
	exec runner.Stats
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// setup builds the clones the workload simulates, once, and returns
	// their profiles and the number of operations it ran.
	setup func(o opts, sw *stopwatch) ([]*profiler.Profile, int, error)
	// run makes the workload's user-facing calls once, untraced, each
	// timed by sw.
	run func(o opts, sw *stopwatch) (*outcome, error)
	// traced does the same work serially, calling each layer through p.
	traced func(o opts, p *probe) (*outcome, error)
}

// suite is the benchmark's workload set; BENCHMARK.json lists the same
// names with the same reasons.
var suite = []workload{
	{
		name:   "fig6a-l1",
		why:    "full Fig 6a sweep, 540 points: memsim's L1 path under a saturated runner; clone building is under 5% of wall time",
		setup:  prepareAll,
		run:    runFig6a,
		traced: tracedFig6a,
	},
	{
		name:   "l2-dram",
		why:    "Fig 6b then Fig 7, 738 points: L2 capacity misses and the DRAM controller, and both open accuracy gaps",
		setup:  prepareAll,
		run:    runL2DRAM,
		traced: tracedL2DRAM,
	},
	{
		name:   "clone",
		why:    "Table 1 then Fig 8, 90 clone builds: emulation, coalescing, profiling and generation carry half the CPU",
		setup:  prepareAll,
		run:    runClone,
		traced: tracedClone,
	},
	{
		name:   "large-kernel",
		why:    "file-based chain on six kernels at scale 8, one goroutine: trace codecs and single-simulation latency on held-out sizes",
		setup:  setupLarge,
		run:    func(o opts, sw *stopwatch) (*outcome, error) { return runLarge(o, &probe{}, sw) },
		traced: func(o opts, p *probe) (*outcome, error) { return runLarge(o, p, nil) },
	},
}

func findWorkload(name string) *workload {
	for i := range suite {
		if suite[i].name == name {
			return &suite[i]
		}
	}
	return nil
}

// figureBenchmarks is the benchmark set of the three figure workloads.
func (o opts) figureBenchmarks() []string {
	if o.benchmarks != nil {
		return o.benchmarks
	}
	return workloads.Names()
}

// prepareAll is the figure workloads' set-up: core.Prepare over every
// benchmark, serially, at the evaluation's scale and factor.
func prepareAll(o opts, sw *stopwatch) ([]*profiler.Profile, int, error) {
	names := o.figureBenchmarks()
	ps := make([]*profiler.Profile, 0, len(names))
	for i, name := range names {
		var w *core.Workload
		err := sw.time("prepare/"+name, func() (err error) {
			w, err = core.Prepare(name, 1, profiler.DefaultConfig(), synth.Options{Seed: o.seed, ScaleFactor: scaleFactor})
			return err
		})
		if err != nil {
			return ps, i + 1, err
		}
		ps = append(ps, w.Profile)
	}
	return ps, len(names), nil
}

// evalOptions returns the evaluation options of one figure sweep over
// the given benchmarks. Every point the sweep executes reaches out through
// the result sink.
func (o opts) evalOptions(out *outcome, exp string, benchmarks []string) *eval.Options {
	eo := eval.DefaultOptions()
	eo.Benchmarks = benchmarks
	eo.Workers = o.workers
	eo.Seed = o.seed
	eo.ResultSink = func(_ string, v json.RawMessage, _ time.Duration) error {
		return out.point(exp, v)
	}
	return &eo
}

// point records one sweep point's checkpoint payload. Fields named orig*
// are the original side and the rest the clone side; *_ns fields are
// wall-clock timings, not results.
func (out *outcome) point(exp string, payload json.RawMessage) error {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		return fmt.Errorf("%s point: %w", exp, err)
	}
	for k, v := range fields {
		switch {
		case strings.HasSuffix(k, "_ns"):
		case strings.HasPrefix(k, "orig"):
			out.orig.raw(exp, k, v)
		default:
			out.proxy.raw(exp, k, v)
		}
	}
	return nil
}

// count folds a finished sweep's runner statistics into the outcome.
func (out *outcome) count(eo *eval.Options) {
	st := eo.ExecStats()
	out.exec = out.exec.Add(st)
	out.attempted += st.Total
	out.failed += st.Failed
}

// eachBenchmark makes a figure's eval call once per benchmark, in order,
// each timed on its own, so the stopwatch can scale every call by the host
// speed around it. A call over one benchmark does the same work as that
// benchmark's share of a call over all of them: eval prepares each
// benchmark once per call and runs its points on the runner.
func (o opts) eachBenchmark(out *outcome, sw *stopwatch, exp string, call func(eo *eval.Options) error) error {
	for _, name := range o.figureBenchmarks() {
		eo := o.evalOptions(out, exp, []string{name})
		err := sw.time(exp+"/"+name, func() error { return call(eo) })
		out.count(eo)
		if err != nil {
			return err
		}
	}
	return nil
}

// rowMeans are a figure's headline error and correlation over its
// benchmark rows, as eval computes them for a call over all of them.
func rowMeans(rows []eval.BenchResult) (errPP, corr float64) {
	errs := make([]float64, len(rows))
	corrs := make([]float64, len(rows))
	for i, r := range rows {
		errs[i], corrs[i] = r.Error, r.Correlation
	}
	return stats.Mean(errs), stats.Mean(corrs)
}

func runFig6a(o opts, sw *stopwatch) (*outcome, error) {
	out := &outcome{}
	var rows []eval.BenchResult
	err := o.eachBenchmark(out, sw, "fig6a", func(eo *eval.Options) error {
		fig, err := eo.Fig6a()
		if err == nil {
			rows = append(rows, fig.Rows...)
		}
		return err
	})
	if err != nil {
		return out, err
	}
	out.setFig6a(rowMeans(rows))
	return out, nil
}

func (out *outcome) setFig6a(errPP, corr float64) {
	out.errPP = errPP
	out.details = []detail{{"fig6a_err_pp", "pp", errPP}, {"fig6a_corr", "r", corr}}
}

func runL2DRAM(o opts, sw *stopwatch) (*outcome, error) {
	out := &outcome{}
	var l2, rbl, queue, rdlat []eval.BenchResult
	err := o.eachBenchmark(out, sw, "fig6b", func(eo *eval.Options) error {
		fig, err := eo.Fig6b()
		if err == nil {
			l2 = append(l2, fig.Rows...)
		}
		return err
	})
	if err != nil {
		return out, err
	}
	err = o.eachBenchmark(out, sw, "fig7", func(eo *eval.Options) error {
		f7, err := eo.Fig7()
		if err == nil {
			rbl = append(rbl, f7.RBL.Rows...)
			queue = append(queue, f7.QueueLen.Rows...)
			rdlat = append(rdlat, f7.ReadLat.Rows...)
		}
		return err
	})
	if err != nil {
		return out, err
	}
	errPP, corr := rowMeans(l2)
	rblErr, _ := rowMeans(rbl)
	queueErr, _ := rowMeans(queue)
	rdlatErr, _ := rowMeans(rdlat)
	out.setL2DRAM(errPP, corr, rblErr, queueErr, rdlatErr)
	return out, nil
}

func (out *outcome) setL2DRAM(errPP, corr, rbl, queue, rdlat float64) {
	out.errPP = errPP
	out.details = []detail{
		{"fig6b_err_pp", "pp", errPP},
		{"fig6b_corr", "r", corr},
		{"fig7_rbl_err_pp", "pp", rbl},
		{"fig7_queue_err_pct", "%", queue},
		{"fig7_rdlat_err_pct", "%", rdlat},
	}
}

func runClone(o opts, sw *stopwatch) (*outcome, error) {
	out := &outcome{}
	var rows []eval.Table1Row
	err := sw.time("table1", func() (err error) {
		rows, err = o.evalOptions(out, "table1", nil).Table1()
		return err
	})
	out.attempted += len(workloads.Table1Set())
	if err != nil {
		out.failed++
		return out, err
	}
	for _, r := range rows {
		out.orig.row("table1", r)
	}
	var accs []float64
	err = o.eachBenchmark(out, sw, "fig8", func(eo *eval.Options) error {
		res, err := eo.Fig8()
		if err == nil {
			for _, pt := range res.Points {
				accs = append(accs, pt.Accuracy)
			}
		}
		return err
	})
	if err != nil {
		return out, err
	}
	out.setFig8(accs)
	return out, nil
}

// setFig8 records Fig 8's error: the mean over benchmarks and factors of
// 100 minus the accuracy of one benchmark at one factor.
func (out *outcome) setFig8(accs []float64) {
	errs := make([]float64, len(accs))
	for i, a := range accs {
		errs[i] = 100 - a
	}
	out.errPP = stats.Mean(errs)
	out.details = []detail{{"fig8_err_pp", "pp", out.errPP}}
}
