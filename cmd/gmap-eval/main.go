// Command gmap-eval regenerates the tables and figures of the paper's
// evaluation (§5): Table 1 (application memory patterns), Table 2 (system
// configuration), Figures 6a-6e (cache, prefetcher and scheduler sweeps),
// Figure 7 (DRAM exploration) and Figure 8 (miniaturization).
//
// Sweeps execute on the parallel experiment engine: -workers controls the
// pool size (default: every CPU; results are identical to a serial run),
// and -checkpoint/-resume make runs restartable — Ctrl-C a long sweep,
// re-run with -resume, and finished simulation points are not repeated.
//
// Usage:
//
//	gmap-eval -exp fig6a
//	gmap-eval -exp all -out results.txt
//	gmap-eval -exp fig7 -benchmarks aes,kmeans,bfs -cores 8
//	gmap-eval -exp all -checkpoint run.ckpt -resume -summary run.json
//
// A sweep can also be split across processes (and machines): one
// coordinator partitions the job space and merges streamed results into
// the -checkpoint ledger, N workers execute leased partitions. The
// merged report is byte-identical to a serial -no-timings run:
//
//	gmap-eval -exp fig6a -dist-listen :9500 -checkpoint fig6a.ckpt
//	gmap-eval -worker http://host:9500   # on each worker machine
//
// A dead coordinator is replaced by re-running its command over the same
// ledger. The restart salvages the merged results and claims the next
// epoch, which fences the dead incarnation should it come back. It then
// rewrites the addr file, and workers that re-read it before every retry
// follow it to its new port without a restart:
//
//	gmap-eval -exp fig6a -dist-listen :0 -dist-addr-file coord.addr -checkpoint fig6a.ckpt
//	gmap-eval -worker-addr-file coord.addr   # workers follow the file across restarts
//
// A coordinator federates the fleet's observability from pushes alone:
// workers started with -serve push their registry snapshot after every
// lease heartbeat, their span log at every lease end and a final report
// on exit, and the merged view — labeled metrics, fleet status, the
// cross-process sweep trace — is served under /fleet/ on the
// coordinator's port; -trace-out saves the merged trace when the sweep
// ends. A worker that has not pushed for one lease TTL is marked stale.
// Watch it live from any terminal:
//
//	gmap-eval -worker http://host:9500 -serve :0     # worker joins the fleet
//	gmap-eval -fleet-watch http://host:9500          # or -fleet-watch coord.addr
//
// Each mode reads only some flags (modeFlags); a flag its mode would
// ignore is an error, and so is a flag given without the flag it tunes
// (flagNeeds).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/dist"
	"github.com/uteda/gmap/internal/eval"
	"github.com/uteda/gmap/internal/obs"
	"github.com/uteda/gmap/internal/obs/fleet"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id: "+strings.Join(eval.ExperimentIDs(), ", ")+" or all")
		benchmarks  = flag.String("benchmarks", "", "comma-separated benchmark subset (default all 18)")
		scale       = flag.Int("scale", 1, "workload scale")
		scaleFactor = flag.Float64("scale-factor", 4, "proxy miniaturization factor")
		cores       = flag.Int("cores", 0, "simulated SM count (0 = Table 2's 15)")
		seed        = flag.Uint64("seed", 1, "generation seed")
		out         = flag.String("out", "", "write the report to a file (default stdout)")
		quiet       = flag.Bool("quiet", false, "suppress per-benchmark progress")
		workers     = flag.Int("workers", 0, "parallel simulation jobs (0 = all CPUs, 1 = serial)")
		checkpoint  = flag.String("checkpoint", "", "stream completed simulation points to this JSONL file")
		resume      = flag.Bool("resume", false, "skip points already recorded in -checkpoint")
		fsync       = flag.Bool("fsync", false, "fsync the checkpoint after every append (survives machine crash, not just SIGKILL)")
		noTimings   = flag.Bool("no-timings", false, "omit wall-clock timings from the report so identical runs produce byte-identical output (what gmap-served caches)")
		summary     = flag.String("summary", "", "write a machine-readable execution summary (JSON, incl. worker utilization) to this file")
		obsSnap     = flag.String("obs-snapshot", "", "dump the observability registry (runner/profiler/synth instrumentation) as JSON to this file (- for stdout)")
		serveAddr   = flag.String("serve", "", "serve live observability over HTTP on this address (/metrics, /progress, /trace, /debug/pprof)")
		traceOut    = flag.String("trace-out", "", "export the span trace to this file: Chrome trace-event JSON (load in Perfetto), or JSONL if the path ends in .jsonl (- for stdout)")
		attrOut     = flag.String("attr-out", "", "write per-π / per-PC accuracy-attribution reports to this file: markdown if the path ends in .md, else JSON (- for stdout)")
		attrThresh  = flag.Float64("attr-threshold", 2, "figure-error level above which a benchmark is attributed (pp for rates, % for magnitudes; with -attr-out)")
		attrTop     = flag.Int("attr-top", 8, "ranked π / PC entries kept per attribution report")
		distListen  = flag.String("dist-listen", "", "coordinate a distributed sweep on this address (:0 for an ephemeral port); requires -checkpoint as the merge ledger")
		distAddr    = flag.String("dist-addr-file", "", "write the coordinator's bound address to this file (for scripts using -dist-listen :0)")
		distParts   = flag.Int("dist-parts", 0, "partitions of the distributed job space (0 = 8; capped at the job count)")
		distTTL     = flag.Duration("dist-lease-ttl", 0, "lease heartbeat deadline before a worker's partition is re-leased (0 = 30s)")
		workerURL   = flag.String("worker", "", "run as a distributed-sweep worker against this one coordinator URL (use -worker-addr-file to follow a restarted coordinator)")
		workerAddr  = flag.String("worker-addr-file", "", "discover the coordinator address from this file (the one -dist-addr-file writes), re-read before every retry so the worker follows a restarted coordinator; preferred over -worker while readable")
		fleetWatch  = flag.String("fleet-watch", "", "live fleet status view: poll this coordinator URL's /fleet/status and repaint (also accepts a -dist-addr-file path, re-read before every poll)")
		fleetIval   = flag.Duration("fleet-interval", 0, "-fleet-watch refresh interval (0 = 2s)")
	)
	flag.Parse()
	mode := evalMode(*fleetWatch, *distListen, *workerURL, *workerAddr)
	if err := checkModeFlags(mode, flag.CommandLine); err != nil {
		fatal(err)
	}
	if strings.Contains(*workerURL, ",") {
		fatal(fmt.Errorf("-worker takes one coordinator URL, not a list; to follow a restarted coordinator, use -worker-addr-file"))
	}

	// Ctrl-C stops a sweep cleanly: no new point starts, the points in
	// flight finish into the checkpoint, and a -resume re-run picks up
	// from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var distLogf func(string, ...interface{})
	if !*quiet {
		distLogf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if mode == modeFleetWatch {
		if err := fleet.Watch(ctx, os.Stdout, *fleetWatch, *fleetIval); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}
	if mode == modeWorker {
		// Worker mode: the sweep's shape comes from the coordinator
		// inside each lease grant. -serve opts the worker into the fleet
		// (pushes to the coordinator's federator).
		if err := runWorker(ctx, *workerURL, *workerAddr, *serveAddr, *workers, distLogf); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	// One spec carries the sweep flags in both modes, checked before
	// anything runs: an unknown experiment or benchmark, or a negative
	// scale factor or core count, fails here rather than once per point.
	spec := dist.SweepSpec{
		Experiment:  strings.ToLower(*exp), // as eval's Run matches it
		Scale:       *scale,
		ScaleFactor: *scaleFactor,
		Cores:       *cores,
		Seed:        *seed,
	}
	if *benchmarks != "" {
		spec.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if err := spec.Normalize(); err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if mode == modeCoordinator {
		df := distFlags{
			listen:   *distListen,
			addrFile: *distAddr,
			parts:    *distParts,
			leaseTTL: *distTTL,
			fsync:    *fsync,
			traceOut: *traceOut,
		}
		if err := runCoordinator(ctx, spec, df, *checkpoint, w, distLogf); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	opts := spec.EvalOptions()
	opts.Workers = *workers
	opts.Checkpoint = *checkpoint
	opts.Resume = *resume
	opts.Fsync = *fsync
	opts.NoTimings = *noTimings
	opts.Context = ctx
	if *obsSnap != "" || *serveAddr != "" {
		opts.Obs = gmap.NewObsRegistry()
	}
	if *traceOut != "" || *serveAddr != "" {
		opts.Trace = gmap.NewTracer()
	}
	if *attrOut != "" {
		opts.Attr = &gmap.AttrOptions{Threshold: *attrThresh, TopK: *attrTop}
	}
	if !*quiet {
		opts.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *serveAddr != "" {
		srv, err := gmap.StartObsServer(ctx, gmap.ServeOptions{
			Addr:     *serveAddr,
			Registry: opts.Obs,
			Tracer:   opts.Trace,
			Progress: func() interface{} { return opts.ProgressSnapshot() },
		})
		if err != nil {
			fatal(err)
		}
		defer srv.Shutdown()
		fmt.Fprintf(os.Stderr, "gmap-eval: serving observability on http://%s\n", srv.Addr())
	}

	runErr := gmap.Experiments(w, spec.Experiment, &opts)
	if *summary != "" {
		if err := writeSummary(*summary, &opts); err != nil {
			fatal(err)
		}
	}
	if *obsSnap != "" {
		if err := obs.WriteFile(*obsSnap, opts.Obs.WriteJSON); err != nil {
			fatal(fmt.Errorf("obs snapshot: %w", err))
		}
	}
	if *traceOut != "" {
		// .jsonl gets the structured-event stream, anything else the
		// Chrome trace-event JSON Perfetto loads.
		export := opts.Trace.WriteChrome
		if strings.HasSuffix(*traceOut, ".jsonl") {
			export = opts.Trace.WriteJSONL
		}
		if err := obs.WriteFile(*traceOut, export); err != nil {
			fatal(fmt.Errorf("trace export: %w", err))
		}
	}
	if *attrOut != "" {
		reports := opts.Attr.Reports()
		export := func(w io.Writer) error { return gmap.WriteAttrJSON(w, reports) }
		if strings.HasSuffix(*attrOut, ".md") {
			export = func(w io.Writer) error { return gmap.WriteAttrMarkdown(w, reports) }
		}
		if err := obs.WriteFile(*attrOut, export); err != nil {
			fatal(fmt.Errorf("attribution report: %w", err))
		}
	}
	if runErr != nil {
		if ctx.Err() != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "gmap-eval: interrupted; finished points saved to %s, re-run with -resume\n", *checkpoint)
		}
		fatal(runErr)
	}
}

// Modes of one invocation, worded for the error that names a flag the
// mode does not read.
const (
	modeSerial      = "in a serial sweep"
	modeCoordinator = "with -dist-listen"
	modeWorker      = "in worker mode"
	modeFleetWatch  = "with -fleet-watch"
)

// sweepShape are the flags that define a sweep's job space.
const sweepShape = "exp benchmarks scale scale-factor cores seed "

// modeFlags lists the flags each mode reads. A coordinator always
// resumes its ledger and renders without timings, so -resume and
// -no-timings are allowed there and change nothing.
var modeFlags = map[string][]string{
	modeSerial: strings.Fields(sweepShape + "out quiet workers checkpoint resume fsync " +
		"no-timings summary obs-snapshot serve trace-out attr-out attr-threshold attr-top"),
	modeCoordinator: strings.Fields(sweepShape + "out quiet checkpoint resume fsync no-timings trace-out " +
		"dist-listen dist-addr-file dist-parts dist-lease-ttl"),
	modeWorker:     strings.Fields("worker worker-addr-file serve workers quiet"),
	modeFleetWatch: strings.Fields("fleet-watch fleet-interval"),
}

// flagNeeds maps a flag that tunes another to the flag it tunes: given
// alone, it would change nothing.
var flagNeeds = map[string]string{
	"attr-threshold": "attr-out",
	"attr-top":       "attr-out",
	"fsync":          "checkpoint",
	"resume":         "checkpoint",
	"dist-listen":    "checkpoint",
}

// evalMode picks the mode from the flags that select one: -fleet-watch
// over -dist-listen over -worker and -worker-addr-file.
func evalMode(fleetWatch, distListen, worker, workerAddr string) string {
	switch {
	case fleetWatch != "":
		return modeFleetWatch
	case distListen != "":
		return modeCoordinator
	case worker != "" || workerAddr != "":
		return modeWorker
	}
	return modeSerial
}

// checkModeFlags names the first flag given on fs's command line that
// mode does not read, and failing that the first one given without the
// flag it needs (flagNeeds). A needed flag counts as given only when its
// value differs from its default: -checkpoint "" switches nothing on.
func checkModeFlags(mode string, fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, name := range set {
		if !slices.Contains(modeFlags[mode], name) {
			return fmt.Errorf("-%s has no effect %s", name, mode)
		}
	}
	for _, name := range set {
		need, ok := flagNeeds[name]
		if !ok {
			continue
		}
		if f := fs.Lookup(need); f.Value.String() == f.DefValue {
			return fmt.Errorf("-%s needs -%s", name, need)
		}
	}
	return nil
}

func writeSummary(path string, opts *gmap.ExperimentOptions) error {
	data, err := json.MarshalIndent(opts.ExecStats(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmap-eval:", err)
	os.Exit(1)
}
