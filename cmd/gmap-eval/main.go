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
// coordinator's port. A worker that has not pushed for one lease TTL is
// marked stale. Watch it live from any terminal:
//
//	gmap-eval -worker http://host:9500 -serve :0     # worker joins the fleet
//	gmap-eval -fleet-watch http://host:9500          # or -fleet-watch coord.addr
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/uteda/gmap"
	"github.com/uteda/gmap/internal/dist"
	"github.com/uteda/gmap/internal/eval"
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
		jobTimeout  = flag.Duration("job-timeout", 0, "per-simulation-point time limit (0 = none)")
		retries     = flag.Int("retries", 0, "re-execute simulation points failing with a transient error up to N times")
		retryWait   = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay before a retry, doubled per attempt with jitter")
		fsync       = flag.Bool("fsync", false, "fsync the checkpoint after every append (survives machine crash, not just SIGKILL)")
		tolerate    = flag.Bool("tolerate", false, "skip-and-report benchmarks whose sweep points fail instead of aborting the figure")
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
	if *resume && *checkpoint == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *workerURL != "" && *distListen != "" {
		fatal(fmt.Errorf("-worker and -dist-listen are mutually exclusive"))
	}
	if strings.Contains(*workerURL, ",") {
		fatal(fmt.Errorf("-worker takes one coordinator URL, not a list; to follow a restarted coordinator, use -worker-addr-file"))
	}

	// Ctrl-C cancels in-flight sweeps cleanly: completed points are
	// already in the checkpoint, so a -resume re-run picks up from there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var distLogf func(string, ...interface{})
	if !*quiet {
		distLogf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *fleetWatch != "" {
		if err := fleet.Watch(ctx, os.Stdout, *fleetWatch, *fleetIval); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}
	if *workerURL != "" || *workerAddr != "" || *distListen != "" {
		if *distListen == "" {
			// Worker mode: the sweep's shape comes from the coordinator
			// inside each lease grant. -serve opts the worker into the
			// fleet (pushes to the coordinator's federator).
			if err := runWorker(ctx, *workerURL, *workerAddr, *serveAddr, *workers, distLogf); err != nil && ctx.Err() == nil {
				fatal(err)
			}
			return
		}
		df := distFlags{
			listen:   *distListen,
			addrFile: *distAddr,
			parts:    *distParts,
			leaseTTL: *distTTL,
		}
		spec := dist.SweepSpec{
			Experiment:  *exp,
			Scale:       *scale,
			ScaleFactor: *scaleFactor,
			Cores:       *cores,
			Seed:        *seed,
		}
		if *benchmarks != "" {
			spec.Benchmarks = strings.Split(*benchmarks, ",")
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
		if err := runCoordinator(ctx, spec, df, *checkpoint, w, distLogf); err != nil && ctx.Err() == nil {
			fatal(err)
		}
		return
	}

	opts := gmap.ExperimentOptions{
		Scale:        *scale,
		ScaleFactor:  *scaleFactor,
		Cores:        *cores,
		Seed:         *seed,
		Workers:      *workers,
		Checkpoint:   *checkpoint,
		Resume:       *resume,
		Retries:      *retries,
		RetryBackoff: *retryWait,
		Fsync:        *fsync,
		Tolerate:     *tolerate,
		NoTimings:    *noTimings,
		JobTimeout:   *jobTimeout,
		Context:      ctx,
	}
	if *obsSnap != "" || *serveAddr != "" {
		opts.Obs = gmap.NewObsRegistry()
	}
	if *traceOut != "" || *serveAddr != "" {
		opts.Trace = gmap.NewTracer()
	}
	if *attrOut != "" {
		opts.Attr = &gmap.AttrOptions{Threshold: *attrThresh, TopK: *attrTop}
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
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

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	runErr := gmap.Experiments(w, *exp, &opts)
	if *summary != "" {
		if err := writeSummary(*summary, &opts); err != nil {
			fatal(err)
		}
	}
	if *obsSnap != "" {
		if err := writeObsSnapshot(*obsSnap, opts.Obs); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts.Trace); err != nil {
			fatal(err)
		}
	}
	if *attrOut != "" {
		if err := writeAttr(*attrOut, opts.Attr.Reports()); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		if ctx.Err() != nil && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "gmap-eval: interrupted; finished points saved to %s, re-run with -resume\n", *checkpoint)
		}
		fatal(runErr)
	}
}

func writeObsSnapshot(path string, r *gmap.ObsRegistry) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace exports the span log, picking the format from the path:
// .jsonl gets the structured-event stream, anything else the Chrome
// trace-event JSON Perfetto loads.
func writeTrace(path string, tr *gmap.Tracer) error {
	export := tr.WriteChrome
	if strings.HasSuffix(path, ".jsonl") {
		export = tr.WriteJSONL
	}
	if path == "-" {
		return export(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := export(f); err != nil {
		f.Close()
		return fmt.Errorf("trace export %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace export %s: %w", path, err)
	}
	return nil
}

// writeAttr writes the attribution reports, as markdown when the path
// ends in .md and JSON otherwise.
func writeAttr(path string, reports []*gmap.AttrReport) error {
	export := func(w io.Writer) error { return gmap.WriteAttrJSON(w, reports) }
	if strings.HasSuffix(path, ".md") {
		export = func(w io.Writer) error { return gmap.WriteAttrMarkdown(w, reports) }
	}
	if path == "-" {
		return export(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("attribution report: %w", err)
	}
	if err := export(f); err != nil {
		f.Close()
		return fmt.Errorf("attribution report %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("attribution report %s: %w", path, err)
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
